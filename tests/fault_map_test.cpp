// Property tests for fault_map's dense plane ops: over randomized fault
// maps covering all five fault_kinds (re-added cells included), the
// mask ops (single-word and batched row ops through sram_array) must be
// bit-identical to the per-cell reference walk and to an independent
// cell-by-cell model — including transition faults across write
// sequences — and the batched APIs must keep sram_array::access_count()
// at exactly one access per word.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "urmem/common/rng.hpp"
#include "urmem/memory/fault_map.hpp"
#include "urmem/memory/fault_sampler.hpp"
#include "urmem/memory/sram_array.hpp"

namespace urmem {
namespace {

constexpr fault_kind kAllKinds[] = {
    fault_kind::stuck_at_zero, fault_kind::stuck_at_one, fault_kind::flip,
    fault_kind::transition_up_fail, fault_kind::transition_down_fail};

using cell_model =
    std::map<std::pair<std::uint32_t, std::uint32_t>, fault_kind>;

// Random map with `count` faults drawn uniformly over cells and kinds —
// unlike the samplers' polarity presets this guarantees every kind has
// equal mass, so thin kinds (transition faults) are always exercised.
// Draws are with replacement, so dense maps re-add cells with a new
// kind; `model` (when given) records the last kind per cell.
fault_map random_map(const array_geometry& geometry, std::uint64_t count,
                     rng& gen, cell_model* model = nullptr) {
  fault_map map(geometry);
  for (std::uint64_t i = 0; i < count; ++i) {
    const fault f{static_cast<std::uint32_t>(gen.uniform_below(geometry.rows)),
                  static_cast<std::uint32_t>(gen.uniform_below(geometry.width)),
                  kAllKinds[gen.uniform_below(5)]};
    map.add(f);
    if (model != nullptr) (*model)[{f.row, f.col}] = f.kind;
  }
  return map;
}

std::vector<word_t> random_words(std::uint32_t count, unsigned width,
                                 rng& gen) {
  std::vector<word_t> out(count);
  for (auto& w : out) w = gen() & word_mask(width);
  return out;
}

TEST(FaultMapPlaneTest, PlanesMatchAnIndependentCellModel) {
  rng gen(9001);
  std::uint64_t re_added = 0;
  for (int round = 0; round < 40; ++round) {
    const array_geometry geometry{
        static_cast<std::uint32_t>(1 + gen.uniform_below(200)),
        static_cast<std::uint32_t>(1 + gen.uniform_below(64))};
    const std::uint64_t draws = gen.uniform_below(3 * geometry.rows + 1);
    cell_model model;
    const fault_map map = random_map(geometry, draws, gen, &model);
    re_added += draws - model.size();
    ASSERT_EQ(map.fault_count(), model.size());

    std::vector<fault> expected;
    std::vector<word_t> cols(geometry.rows, 0);
    for (const auto& [cell, kind] : model) {
      expected.push_back({cell.first, cell.second, kind});
      cols[cell.first] |= word_t{1} << cell.second;
    }
    EXPECT_EQ(map.all_faults(), expected);
    for (std::uint32_t row = 0; row < geometry.rows; ++row) {
      ASSERT_EQ(map.fault_cols(row), cols[row]) << "row " << row;
      ASSERT_EQ(map.row_has_faults(row), cols[row] != 0) << "row " << row;
      // Per-cell model of a write then a read: apply each cell's kind.
      const word_t mask = word_mask(geometry.width);
      const word_t old = gen() & mask;
      const word_t ideal = gen();
      word_t stored = ideal & mask;
      word_t read = ideal & mask;
      for (std::uint32_t col = 0; col < geometry.width; ++col) {
        const auto it = model.find({row, col});
        if (it == model.end()) continue;
        const word_t bit = word_t{1} << col;
        const bool rises = (old & bit) == 0 && (ideal & bit) != 0;
        const bool falls = (old & bit) != 0 && (ideal & bit) == 0;
        switch (it->second) {
          case fault_kind::stuck_at_zero: read &= ~bit; break;
          case fault_kind::stuck_at_one: read |= bit; break;
          case fault_kind::flip: read ^= bit; break;
          case fault_kind::transition_up_fail:
            if (rises) stored &= ~bit;
            break;
          case fault_kind::transition_down_fail:
            if (falls) stored |= bit;
            break;
        }
      }
      ASSERT_EQ(map.corrupt(row, ideal), read) << "row " << row;
      ASSERT_EQ(map.apply_write(row, old, ideal), stored) << "row " << row;
    }
  }
  EXPECT_GT(re_added, 0u);  // the replacement path was exercised
}

TEST(FaultMapPlaneTest, MaskOpsMatchReferenceOnReads) {
  rng gen(2024);
  for (int round = 0; round < 40; ++round) {
    const array_geometry geometry{
        static_cast<std::uint32_t>(1 + gen.uniform_below(300)),
        static_cast<std::uint32_t>(1 + gen.uniform_below(64))};
    const fault_map map =
        random_map(geometry, gen.uniform_below(2 * geometry.rows + 1), gen);
    for (int probe = 0; probe < 50; ++probe) {
      const auto row =
          static_cast<std::uint32_t>(gen.uniform_below(geometry.rows));
      const word_t ideal = gen();  // deliberately unmasked input
      const word_t expected = map.corrupt_reference(row, ideal);
      EXPECT_EQ(map.corrupt(row, ideal), expected);
      EXPECT_EQ(map.corrupt(row, ideal & word_mask(geometry.width)), expected);
    }
  }
}

TEST(FaultMapPlaneTest, MaskOpsMatchReferenceOnWrites) {
  rng gen(77);
  for (int round = 0; round < 40; ++round) {
    const array_geometry geometry{
        static_cast<std::uint32_t>(1 + gen.uniform_below(200)),
        static_cast<std::uint32_t>(1 + gen.uniform_below(64))};
    const fault_map map =
        random_map(geometry, gen.uniform_below(2 * geometry.rows + 1), gen);
    for (int probe = 0; probe < 50; ++probe) {
      const auto row =
          static_cast<std::uint32_t>(gen.uniform_below(geometry.rows));
      const word_t old = gen();
      const word_t incoming = gen();
      EXPECT_EQ(map.apply_write(row, old, incoming),
                map.apply_write_reference(row, old, incoming));
    }
  }
}

TEST(FaultMapPlaneTest, BatchedRowOpsMatchPerWordOpsAcrossWriteSequences) {
  rng gen(5150);
  for (int round = 0; round < 15; ++round) {
    const array_geometry geometry{
        static_cast<std::uint32_t>(2 + gen.uniform_below(400)),
        static_cast<std::uint32_t>(1 + gen.uniform_below(64))};
    const fault_map map =
        random_map(geometry, gen.uniform_below(3 * geometry.rows + 1), gen);

    sram_array batched(map);
    batched.set_fault_path(fault_path::compiled);
    sram_array oracle(map);
    oracle.set_fault_path(fault_path::reference);

    // Several full-array writes so transition faults see 0->1 and 1->0
    // transitions whose outcome depends on the accumulated cell state.
    for (int pass = 0; pass < 4; ++pass) {
      const auto pattern = random_words(geometry.rows, geometry.width, gen);
      batched.write_rows(0, pattern);
      for (std::uint32_t row = 0; row < geometry.rows; ++row) {
        oracle.write(row, pattern[row]);
      }
      std::vector<word_t> out(geometry.rows);
      batched.read_rows(0, out);
      for (std::uint32_t row = 0; row < geometry.rows; ++row) {
        ASSERT_EQ(out[row], oracle.read(row))
            << "pass " << pass << " row " << row;
        ASSERT_EQ(batched.read_ideal(row), oracle.read_ideal(row))
            << "pass " << pass << " row " << row;
      }
    }

    // Partial-range ops agree with per-word ops on a third array.
    const auto first =
        static_cast<std::uint32_t>(gen.uniform_below(geometry.rows));
    const auto count = static_cast<std::uint32_t>(
        1 + gen.uniform_below(geometry.rows - first));
    const auto chunk = random_words(count, geometry.width, gen);
    batched.write_rows(first, chunk);
    for (std::uint32_t i = 0; i < count; ++i) oracle.write(first + i, chunk[i]);
    std::vector<word_t> slice(count);
    batched.read_rows(first, slice);
    for (std::uint32_t i = 0; i < count; ++i) {
      ASSERT_EQ(slice[i], oracle.read(first + i));
    }
  }
}

TEST(FaultMapPlaneTest, MixedPolaritySamplerMapsMatchReference) {
  rng gen(31337);
  const array_geometry geometry{512, 32};
  const fault_map map = sample_fault_map_exact(geometry, 800, gen,
                                               fault_polarity::mixed);
  rng probe(1);
  for (int i = 0; i < 2000; ++i) {
    const auto row = static_cast<std::uint32_t>(probe.uniform_below(512));
    const word_t ideal = probe() & word_mask(32);
    EXPECT_EQ(map.corrupt(row, ideal), map.corrupt_reference(row, ideal));
  }
}

TEST(FaultMapPlaneTest, FaultFreeSpanSkipsAreExact) {
  fault_map map({256, 16});
  map.add({0, 3, fault_kind::flip});
  map.add({63, 1, fault_kind::stuck_at_one});
  map.add({64, 0, fault_kind::stuck_at_zero});
  map.add({255, 15, fault_kind::flip});

  EXPECT_FALSE(map.rows_fault_free(0, 256));
  EXPECT_TRUE(map.rows_fault_free(1, 62));    // 1..62 clean
  EXPECT_FALSE(map.rows_fault_free(1, 63));   // picks up row 63
  EXPECT_TRUE(map.rows_fault_free(65, 190));  // 65..254 clean
  EXPECT_FALSE(map.rows_fault_free(65, 191)); // picks up row 255
  EXPECT_TRUE(map.rows_fault_free(100, 0));

  // A fault-free map corrupts nothing under the batched op.
  const fault_map clean(array_geometry{8, 16});
  std::vector<word_t> words{1, 2, 3, 4, 5, 6, 7, 8};
  const auto before = words;
  clean.corrupt_rows(0, words);
  EXPECT_EQ(words, before);
}

TEST(FaultMapPlaneTest, SetFaultsSwapsTheMapWithNoStaleRows) {
  const array_geometry geometry{16, 8};
  sram_array array{(fault_map(geometry))};
  array.write(3, 0xFF);
  EXPECT_EQ(array.read(3), 0xFFULL);

  fault_map faults(geometry);
  faults.add({3, 0, fault_kind::stuck_at_zero});
  array.set_faults(faults);
  EXPECT_EQ(array.read(3), 0xFEULL);
  EXPECT_FALSE(array.faults().rows_fault_free(3, 1));

  // A different map: row 3 is clean now, row 9 is not.
  fault_map moved(geometry);
  moved.add({9, 7, fault_kind::stuck_at_one});
  array.set_faults(moved);
  EXPECT_EQ(array.read(3), 0xFFULL);
  EXPECT_EQ(array.read(9), 0x80ULL);
  EXPECT_EQ(array.faults().faulty_rows(), (std::vector<std::uint32_t>{9}));
  std::vector<word_t> all(16);
  array.read_rows(0, all);
  for (std::uint32_t row = 0; row < 16; ++row) {
    EXPECT_EQ(all[row], moved.corrupt(row, array.read_ideal(row)));
  }

  array.set_faults(fault_map(geometry));  // back to clean
  EXPECT_EQ(array.read(3), 0xFFULL);
  EXPECT_EQ(array.read(9), 0x00ULL);
  EXPECT_TRUE(array.faults().rows_fault_free(0, 16));
  EXPECT_THROW(array.set_faults(fault_map(array_geometry{16, 9})),
               std::invalid_argument);
}

TEST(FaultMapPlaneTest, AccessCountIsOnePerWordUnderBatchedOps) {
  const array_geometry geometry{64, 32};
  sram_array array{(fault_map(geometry))};
  EXPECT_EQ(array.access_count(), 0u);

  const std::vector<word_t> words(64, 0xABCD);
  array.write_rows(0, std::span(words).subspan(0, 40));
  EXPECT_EQ(array.access_count(), 40u);

  std::vector<word_t> out(25);
  array.read_rows(10, out);
  EXPECT_EQ(array.access_count(), 65u);

  // Batched and per-word accounting agree: same op count either way.
  sram_array per_word{(fault_map(geometry))};
  for (std::uint32_t row = 0; row < 40; ++row) per_word.write(row, 0xABCD);
  for (std::uint32_t row = 10; row < 35; ++row) (void)per_word.read(row);
  EXPECT_EQ(per_word.access_count(), array.access_count());

  // Empty spans are legal and cost nothing.
  array.write_rows(64, std::span<const word_t>());
  array.read_rows(0, std::span<word_t>());
  EXPECT_EQ(array.access_count(), 65u);

  // The reference oracle counts identically.
  array.set_fault_path(fault_path::reference);
  array.read_rows(0, out);
  EXPECT_EQ(array.access_count(), 90u);
}

TEST(FaultMapPlaneTest, BatchedOpsRejectOutOfRangeSpans) {
  sram_array array{(fault_map(array_geometry{8, 8}))};
  std::vector<word_t> nine(9, 0);
  EXPECT_THROW(array.read_rows(0, nine), std::invalid_argument);
  EXPECT_THROW(array.write_rows(1, std::span<const word_t>(nine.data(), 8)),
               std::invalid_argument);
  EXPECT_THROW(array.read_rows(9, std::span<word_t>(nine.data(), 0)),
               std::invalid_argument);
  const fault_map map(array_geometry{8, 8});
  EXPECT_THROW((void)map.corrupt(8, 0), std::invalid_argument);
  EXPECT_THROW((void)map.apply_write(8, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)map.fault_cols(8), std::invalid_argument);
  EXPECT_THROW((void)map.rows_fault_free(0, 9), std::invalid_argument);
  EXPECT_THROW((void)map.rows_fault_free(9, 0), std::invalid_argument);
}

}  // namespace
}  // namespace urmem
