// Tests of the heterogeneous-reliability tier machinery: tiered_scheme
// row routing and region-boundary block paths (block == scalar ==
// reference, bit for bit), per-region spare pools and repair in
// protected_memory, the zero-fault repair short-circuit regression, and
// the region-segmented fault injector.
#include <gtest/gtest.h>

#include "urmem/common/rng.hpp"
#include "urmem/memory/fault_sampler.hpp"
#include "urmem/scenario/scheme_registry.hpp"
#include "urmem/scenario/workload_registry.hpp"
#include "urmem/scheme/protected_memory.hpp"
#include "urmem/scheme/tiered_scheme.hpp"
#include "urmem/sim/memory_pipeline.hpp"

namespace urmem {
namespace {

/// The canonical HRM fixture: strong ECC over the MSB-critical head,
/// bare shuffle over the tolerant tail, resolved through the registry
/// exactly like a spec would.
scheme_recipe make_fixture_recipe(std::uint32_t rows = 64,
                                  std::uint32_t boundary = 24) {
  geometry_spec geometry;
  geometry.rows_per_tile = rows;
  scheme_ref ref{"tiered", option_map("schemes[0]")};
  ref.options.set("0-" + std::to_string(boundary - 1), "secded");
  ref.options.set(std::to_string(boundary) + "-" + std::to_string(rows - 1),
                  "shuffle,nfm=2");
  return scheme_registry::instance().make(ref, geometry);
}

TEST(TieredScheme, RoutesRowsAndReportsGeometry) {
  const scheme_recipe recipe = make_fixture_recipe();
  EXPECT_EQ(recipe.display_name, "tiered[0-23:H(39,32) ECC|24-63:nFM=2]");
  ASSERT_EQ(recipe.regions.size(), 2u);
  EXPECT_EQ(recipe.regions[0].spare_rows, 0u);

  const auto scheme = recipe.factory(64);
  EXPECT_EQ(scheme->data_bits(), 32u);
  // Storage width is dictated by the widest tier (the ECC codeword).
  EXPECT_EQ(scheme->storage_bits(), 39u);
  EXPECT_EQ(scheme->lut_bits_per_row(), 2u);

  const auto* tiered = dynamic_cast<const tiered_scheme*>(scheme.get());
  ASSERT_NE(tiered, nullptr);
  EXPECT_EQ(tiered->tier_of(0), 0u);
  EXPECT_EQ(tiered->tier_of(23), 0u);
  EXPECT_EQ(tiered->tier_of(24), 1u);
  EXPECT_EQ(tiered->tier_of(63), 1u);

  // A 1-row probe keeps the full design's storage width (ml-quality's
  // storage-column report relies on this).
  EXPECT_EQ(recipe.factory(1)->storage_bits(), 39u);
}

TEST(TieredScheme, BlockPathsSpanRegionBoundariesBitForBit) {
  const std::uint32_t rows = 64;
  const scheme_recipe recipe = make_fixture_recipe(rows, 24);
  const auto scheme = recipe.factory(rows);

  rng gen(17);
  fault_map faults(array_geometry{rows, scheme->storage_bits()});
  for (int i = 0; i < 50; ++i) {
    faults.add({static_cast<std::uint32_t>(gen.uniform_below(rows)),
                static_cast<std::uint32_t>(
                    gen.uniform_below(scheme->storage_bits())),
                fault_kind::flip});
  }
  scheme->configure(faults);

  std::vector<word_t> data(rows);
  for (auto& word : data) word = gen() & word_mask(32);

  // Block encode over a span crossing the tier boundary equals the
  // scalar and reference paths word for word.
  std::vector<word_t> block(rows);
  scheme->encode_block(0, data, block);
  for (std::uint32_t row = 0; row < rows; ++row) {
    EXPECT_EQ(block[row], scheme->encode(row, data[row])) << "row " << row;
    EXPECT_EQ(block[row], scheme->encode_reference(row, data[row]))
        << "row " << row;
  }

  // Same for an unaligned sub-span that starts inside tier 0 and ends
  // inside tier 1.
  std::vector<word_t> partial(30);
  scheme->encode_block(10, std::span<const word_t>(data).subspan(10, 30),
                       partial);
  for (std::uint32_t i = 0; i < 30; ++i) {
    EXPECT_EQ(partial[i], block[10 + i]) << "row " << (10 + i);
  }

  std::vector<word_t> decoded(block);
  const block_decode_stats stats = scheme->decode_block(0, decoded, decoded);
  block_decode_stats scalar_stats;
  for (std::uint32_t row = 0; row < rows; ++row) {
    const read_result scalar = scheme->decode(row, block[row]);
    const read_result reference = scheme->decode_reference(row, block[row]);
    EXPECT_EQ(decoded[row], scalar.data) << "row " << row;
    EXPECT_EQ(decoded[row], reference.data) << "row " << row;
    EXPECT_EQ(decoded[row], data[row]) << "row " << row;  // fault-free store
    scalar_stats.count(scalar.status);
  }
  EXPECT_EQ(stats.corrected, scalar_stats.corrected);
  EXPECT_EQ(stats.uncorrectable, scalar_stats.uncorrectable);
}

TEST(TieredScheme, EndToEndCompiledMatchesReferenceOracle) {
  const std::uint32_t rows = 48;
  const scheme_recipe recipe = make_fixture_recipe(rows, 16);

  const auto run = [&](fault_path path) {
    protected_memory memory(rows, recipe.factory(rows), recipe.regions);
    memory.set_fault_path(path);
    rng gen(23);
    memory.set_fault_map(
        sample_fault_map_exact(memory.storage_geometry(), 40, gen));
    std::vector<word_t> data(rows);
    for (std::uint32_t row = 0; row < rows; ++row) {
      data[row] = (0xABCD'0000ull + row * 2654435761ull) & word_mask(32);
    }
    memory.write_block(0, data);
    std::vector<word_t> out(rows);
    memory.read_block(0, out);
    return out;
  };

  EXPECT_EQ(run(fault_path::compiled), run(fault_path::reference));
}

/// Mixed-strength HRM with the multi-bit codes: BCH t=2 over the
/// critical head (with its own spare pool), Hsiao over the middle,
/// bare shuffle over the tail. Storage width comes from the widest
/// tier's codeword.
scheme_recipe make_multibit_recipe(std::uint32_t rows = 64) {
  geometry_spec geometry;
  geometry.rows_per_tile = rows;
  scheme_ref ref{"tiered", option_map("schemes[0]")};
  ref.options.set("0-15", "bch,t=2,spare_rows=2");
  ref.options.set("16-39", "hsiao");
  ref.options.set("40-" + std::to_string(rows - 1), "shuffle,nfm=2");
  return scheme_registry::instance().make(ref, geometry);
}

TEST(TieredScheme, MultiBitTiersReportGeometryAndGuarantees) {
  const scheme_recipe recipe = make_multibit_recipe();
  EXPECT_EQ(recipe.display_name,
            "tiered[0-15:BCH(45,32,t=2) ECC|16-39:Hsiao(39,32) ECC"
            "|40-63:nFM=2]");
  ASSERT_EQ(recipe.regions.size(), 3u);
  EXPECT_EQ(recipe.regions[0].spare_rows, 2u);
  EXPECT_EQ(recipe.regions[1].spare_rows, 0u);

  const auto scheme = recipe.factory(64);
  EXPECT_EQ(scheme->data_bits(), 32u);
  // The BCH(45,32,t=2) codeword dictates the tile's storage width.
  EXPECT_EQ(scheme->storage_bits(), 45u);

  // Correction strength routes per row: a double flip inside the BCH
  // tier's codeword is corrected, the same double in the Hsiao tier is
  // detected, and the shuffle tail passes it through.
  scheme->configure(fault_map(array_geometry{64, 45}));
  const word_t data = 0xDEAD'BEEFull;
  for (const std::uint32_t row : {std::uint32_t{3}, std::uint32_t{20},
                                  std::uint32_t{50}}) {
    const word_t two =
        flip_bit(flip_bit(scheme->encode(row, data), 1), 7);
    const read_result r = scheme->decode(row, two);
    if (row < 16) {
      EXPECT_EQ(r.status, ecc_status::corrected) << "row " << row;
      EXPECT_EQ(r.data, data) << "row " << row;
    } else if (row < 40) {
      EXPECT_EQ(r.status, ecc_status::detected_uncorrectable)
          << "row " << row;
    } else {
      EXPECT_EQ(r.data, data ^ ((word_t{1} << 1) | (word_t{1} << 7)))
          << "row " << row;
    }
  }
}

TEST(TieredScheme, MultiBitBlockPathsCrossTierBoundariesBitForBit) {
  const std::uint32_t rows = 64;
  const scheme_recipe recipe = make_multibit_recipe(rows);
  const auto scheme = recipe.factory(rows);

  rng gen(31);
  fault_map faults(array_geometry{rows, scheme->storage_bits()});
  for (int i = 0; i < 60; ++i) {
    faults.add({static_cast<std::uint32_t>(gen.uniform_below(rows)),
                static_cast<std::uint32_t>(
                    gen.uniform_below(scheme->storage_bits())),
                fault_kind::flip});
  }
  scheme->configure(faults);

  std::vector<word_t> data(rows);
  for (auto& word : data) word = gen() & word_mask(32);
  std::vector<word_t> stored(rows);
  scheme->encode_block(0, data, stored);
  for (std::uint32_t row = 0; row < rows; ++row) {
    EXPECT_EQ(stored[row], scheme->encode(row, data[row])) << "row " << row;
    EXPECT_EQ(stored[row], scheme->encode_reference(row, data[row]))
        << "row " << row;
    // Corrupt within each tier's own codeword width so every tier sees
    // single and double errors across its boundary rows.
    if (row % 2 == 0) stored[row] = flip_bit(stored[row], row % 32);
    if (row % 4 == 0) stored[row] = flip_bit(stored[row], (row + 9) % 32);
  }
  std::vector<word_t> decoded(rows);
  const block_decode_stats stats = scheme->decode_block(0, stored, decoded);
  block_decode_stats scalar_stats;
  for (std::uint32_t row = 0; row < rows; ++row) {
    const read_result scalar = scheme->decode(row, stored[row]);
    const read_result reference = scheme->decode_reference(row, stored[row]);
    EXPECT_EQ(decoded[row], scalar.data) << "row " << row;
    EXPECT_EQ(scalar.data, reference.data) << "row " << row;
    EXPECT_EQ(scalar.status, reference.status) << "row " << row;
    scalar_stats.count(scalar.status);
  }
  EXPECT_EQ(stats.corrected, scalar_stats.corrected);
  EXPECT_EQ(stats.uncorrectable, scalar_stats.uncorrectable);
}

TEST(TieredScheme, MultiBitEndToEndCompiledMatchesReferenceOracle) {
  const std::uint32_t rows = 64;
  const scheme_recipe recipe = make_multibit_recipe(rows);

  const auto run = [&](fault_path path) {
    protected_memory memory(rows, recipe.factory(rows), recipe.regions);
    memory.set_fault_path(path);
    rng gen(37);
    memory.set_fault_map(
        sample_fault_map_exact(memory.storage_geometry(), 70, gen));
    std::vector<word_t> data(rows);
    for (std::uint32_t row = 0; row < rows; ++row) {
      data[row] = (0x1357'0000ull + row * 2654435761ull) & word_mask(32);
    }
    memory.write_block(0, data);
    std::vector<word_t> out(rows);
    memory.read_block(0, out);
    return out;
  };

  EXPECT_EQ(run(fault_path::compiled), run(fault_path::reference));
}

TEST(TieredScheme, RowAwareCostRoutesAndClipsColumns) {
  const scheme_recipe recipe = make_fixture_recipe(64, 24);
  const auto scheme = recipe.factory(64);
  const auto secded = make_scheme_secded(32);
  const auto shuffle = make_scheme_shuffle(40, 32, 2);

  const std::vector<std::uint32_t> msb_pair{30, 31};
  // Row 5 lives in the SECDED tier, row 40 in the shuffle tier.
  EXPECT_DOUBLE_EQ(scheme->worst_case_row_cost(5, msb_pair),
                   secded->worst_case_row_cost(0, msb_pair));
  EXPECT_DOUBLE_EQ(scheme->worst_case_row_cost(40, msb_pair),
                   shuffle->worst_case_row_cost(0, msb_pair));
  // Columns beyond a tier's own storage width belong to a wider
  // sibling's geometry and cost the narrow tier nothing (two faults, so
  // the ECC tier cannot correct them away either).
  const std::vector<std::uint32_t> ecc_cols{33, 38};
  EXPECT_GT(scheme->worst_case_row_cost(5, ecc_cols), 0.0);
  EXPECT_DOUBLE_EQ(scheme->worst_case_row_cost(40, ecc_cols), 0.0);
  // Each row's cost is sum 4^b over that row's own tier residual.
  for (const std::uint32_t row : {5u, 40u}) {
    std::vector<std::uint32_t> bits;
    scheme->residual_fault_bits(row, msb_pair, bits);
    double expected = 0.0;
    for (const std::uint32_t b : bits) expected += std::ldexp(1.0, 2 * b);
    EXPECT_DOUBLE_EQ(scheme->worst_case_row_cost(row, msb_pair), expected)
        << row;
  }
}

// ------------------------------------------- per-region spare pools

TEST(ProtectedMemory, RegionSparePoolsRepairIndependently) {
  const std::uint32_t rows = 32;
  // Head region (rows 0-15) has no spares; tail (16-31) has 4.
  const std::vector<memory_region> regions{{0, 15, 0}, {16, 31, 4}};
  protected_memory memory(rows, make_scheme_none(), regions);
  EXPECT_EQ(memory.spare_rows(), 4u);
  EXPECT_EQ(memory.storage_geometry().rows, rows + 4);
  EXPECT_EQ(memory.region_spare_base(1), rows);

  fault_map faults(memory.storage_geometry());
  faults.add({3, 31, fault_kind::flip});   // head: must stay faulty
  faults.add({20, 31, fault_kind::flip});  // tail: repaired from its pool
  faults.add({21, 30, fault_kind::flip});  // tail: repaired from its pool
  memory.set_fault_map(faults);

  ASSERT_EQ(memory.row_remaps().size(), 2u);
  for (const auto& [logical, spare] : memory.row_remaps()) {
    EXPECT_GE(logical, 16u);  // the head cannot steal the tail's spares
    EXPECT_GE(spare, rows);
  }

  std::vector<word_t> data(rows);
  for (std::uint32_t row = 0; row < rows; ++row) data[row] = 0x4321'0000u + row;
  memory.write_block(0, data);
  std::vector<word_t> readback(rows);
  memory.read_block(0, readback);
  // One physical access per logical word — the energy invariant.
  EXPECT_EQ(memory.array().access_count(), 2ull * rows);
  for (std::uint32_t row = 0; row < rows; ++row) {
    if (row == 3) {
      EXPECT_NE(readback[row], data[row]);  // unrepaired MSB flip
    } else {
      EXPECT_EQ(readback[row], data[row]) << "row " << row;
    }
  }
  // Per-region analytic MSE: all residual cost sits in the head.
  EXPECT_GT(memory.analytic_mse(0, 15), 0.0);
  EXPECT_EQ(memory.analytic_mse(16, 31), 0.0);
}

TEST(ProtectedMemory, ZeroFaultMapSkipsRepairAndKeepsAccounting) {
  // Regression: spare_rows > 0 with a fault-free map used to run the
  // whole repair pass anyway.
  const std::uint32_t rows = 16;
  protected_memory memory(rows, make_scheme_secded(), /*spare_rows=*/8);
  memory.set_fault_map(fault_map(memory.storage_geometry()));
  EXPECT_TRUE(memory.row_remaps().empty());
  EXPECT_EQ(memory.analytic_mse(), 0.0);

  std::vector<word_t> data(rows, 0x0F0F'0F0Fu);
  memory.write_block(0, data);
  std::vector<word_t> readback(rows);
  memory.read_block(0, readback);
  EXPECT_EQ(readback, data);
  // Access accounting is untouched by the (skipped) repair pass: one
  // access per word per direction, nothing more.
  EXPECT_EQ(memory.array().access_count(), 2ull * rows);
}

// ------------------------------------------- region fault injector

TEST(RegionFaultInjector, RespectsPerRegionOperatingPoints) {
  // Region 0 fault-free (pcell 0), region 1 at a heavy pcell: every
  // injected fault must land in region 1's rows or region 1's spares.
  const std::vector<region_operating_point> points{
      {{0, 63, 2}, 0.0},
      {{64, 127, 2}, 0.05},
  };
  const fault_injector inject = region_fault_injector(points);
  rng gen(9);
  const array_geometry geometry{128 + 4, 32};
  std::uint64_t total = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const fault_map faults = inject(geometry, gen);
    total += faults.fault_count();
    for (const fault& f : faults.all_faults()) {
      const bool in_region1_rows = f.row >= 64 && f.row < 128;
      const bool in_region1_spares = f.row >= 130 && f.row < 132;
      EXPECT_TRUE(in_region1_rows || in_region1_spares) << "row " << f.row;
    }
  }
  EXPECT_GT(total, 0u);  // 0.05 over 20 trials cannot stay empty
}

}  // namespace
}  // namespace urmem
