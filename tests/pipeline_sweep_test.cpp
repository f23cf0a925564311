// Parameterized end-to-end sweeps of the storage pipeline: every
// protection scheme x every fault polarity x several fault densities,
// checking the invariants that must survive the full
// quantize -> encode -> corrupt -> decode -> dequantize path, and the
// differential check of the row-sparse store_and_readback_words
// against the full-tile oracle store_and_readback_words_reference.
// ctest runs this binary twice: on the default fault path and under
// URMEM_FAULT_PATH=reference (pipeline_sweep_test_reference_path).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "urmem/memory/sram_array.hpp"
#include "urmem/scenario/scenario_spec.hpp"
#include "urmem/scenario/scheme_registry.hpp"
#include "urmem/sim/applications.hpp"
#include "urmem/sim/memory_pipeline.hpp"
#include "urmem/sim/quantizer.hpp"
#include "urmem/verify/pipeline_reference.hpp"

namespace urmem {
namespace {

enum class scheme_id { none, secded, pecc, nfm1, nfm3, nfm5 };

scheme_factory factory_of(scheme_id id) {
  switch (id) {
    case scheme_id::none: return [](std::uint32_t) { return make_scheme_none(); };
    case scheme_id::secded:
      return [](std::uint32_t) { return make_scheme_secded(); };
    case scheme_id::pecc: return [](std::uint32_t) { return make_scheme_pecc(); };
    case scheme_id::nfm1:
      return [](std::uint32_t rows) { return make_scheme_shuffle(rows, 32, 1); };
    case scheme_id::nfm3:
      return [](std::uint32_t rows) { return make_scheme_shuffle(rows, 32, 3); };
    case scheme_id::nfm5:
      return [](std::uint32_t rows) { return make_scheme_shuffle(rows, 32, 5); };
  }
  return {};
}

std::string name_of(scheme_id id) {
  switch (id) {
    case scheme_id::none: return "none";
    case scheme_id::secded: return "secded";
    case scheme_id::pecc: return "pecc";
    case scheme_id::nfm1: return "nfm1";
    case scheme_id::nfm3: return "nfm3";
    case scheme_id::nfm5: return "nfm5";
  }
  return "?";
}

std::string name_of(fault_polarity polarity) {
  switch (polarity) {
    case fault_polarity::flip: return "flip";
    case fault_polarity::random_stuck: return "stuck";
    case fault_polarity::mixed: return "mixed";
  }
  return "?";
}

using sweep_param = std::tuple<scheme_id, fault_polarity, std::uint64_t>;

class PipelineSweep : public ::testing::TestWithParam<sweep_param> {};

/// Invariant: the pipeline never crashes, preserves the matrix shape,
/// and every restored value stays inside the codec's representable
/// range, for any scheme, polarity, and fault density.
TEST_P(PipelineSweep, RestoredValuesStayRepresentable) {
  const auto [id, polarity, faults] = GetParam();
  rng gen(11 + static_cast<std::uint64_t>(id) * 7 + faults);
  matrix m(96, 8);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) m(r, c) = 3.0 * gen.normal();
  }
  storage_config config;
  config.rows_per_tile = 1024;
  pipeline_stats stats;
  const matrix back = store_and_readback(m, config, factory_of(id),
                                         exact_fault_injector(faults, polarity),
                                         gen, &stats);
  ASSERT_EQ(back.rows(), m.rows());
  ASSERT_EQ(back.cols(), m.cols());
  EXPECT_EQ(stats.injected_faults, faults);
  const fixed_point_codec codec(config.word_bits, config.frac_bits);
  for (const double v : back.data()) {
    EXPECT_GE(v, codec.min_value());
    EXPECT_LE(v, codec.max_value());
    EXPECT_TRUE(std::isfinite(v));
  }
}

/// Invariant: stuck-at and mixed populations can only be *milder* than
/// always-flip faults in aggregate (a stuck cell agreeing with the data
/// is invisible); compare mean absolute error under matched fault maps.
TEST_P(PipelineSweep, PolarityNeverWorseThanFlipOnAverage) {
  const auto [id, polarity, faults] = GetParam();
  if (polarity == fault_polarity::flip || faults == 0) GTEST_SKIP();
  matrix m(96, 8);
  rng data_gen(5);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) m(r, c) = 3.0 * data_gen.normal();
  }
  storage_config config;
  config.rows_per_tile = 1024;

  const auto mean_abs_error = [&](fault_polarity p, std::uint64_t seed) {
    rng gen(seed);
    const matrix back = store_and_readback(m, config, factory_of(id),
                                           exact_fault_injector(faults, p), gen);
    double acc = 0.0;
    for (std::size_t i = 0; i < m.rows() * m.cols(); ++i) {
      acc += std::abs(back.data()[i] - m.data()[i]);
    }
    return acc / static_cast<double>(m.rows() * m.cols());
  };

  // Average both polarities over a few seeds (positions differ per
  // draw; the aggregate ordering is what the invariant promises).
  double flip_total = 0.0;
  double other_total = 0.0;
  for (std::uint64_t s = 1; s <= 5; ++s) {
    flip_total += mean_abs_error(fault_polarity::flip, s);
    other_total += mean_abs_error(polarity, s);
  }
  EXPECT_LE(other_total, flip_total * 1.35 + 1e-9)
      << name_of(id) << "/" << name_of(polarity);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, PipelineSweep,
    ::testing::Combine(::testing::Values(scheme_id::none, scheme_id::secded,
                                         scheme_id::pecc, scheme_id::nfm1,
                                         scheme_id::nfm3, scheme_id::nfm5),
                       ::testing::Values(fault_polarity::flip,
                                         fault_polarity::random_stuck,
                                         fault_polarity::mixed),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{16},
                                         std::uint64_t{128})),
    [](const ::testing::TestParamInfo<sweep_param>& info) {
      return name_of(std::get<0>(info.param)) + "_" +
             name_of(std::get<1>(info.param)) + "_" +
             std::to_string(std::get<2>(info.param));
    });

// ------------------------------------------- row-sparse readback oracle

/// Every scheme of the registry, in the compact spec form: the paper's
/// set, the multi-bit ECCs, the stacked compositions, spare-row repair,
/// and a tiered tile whose regions differ in width and own spare pools.
const std::vector<std::string>& registry_schemes() {
  static const std::vector<std::string> specs = {
      "none",
      "secded",
      "hsiao",
      "bch",
      "pecc",
      "shuffle:nfm=1",
      "shuffle:nfm=2",
      "shuffle+pecc",
      "shuffle+secded",
      "redundancy",
      "tiered:0-1023=secded,spare_rows=8:1024-3071=shuffle,nfm=2:"
      "3072-4095=redundancy,spares=4",
  };
  return specs;
}

scheme_recipe resolve(const std::string& spec) {
  return scheme_registry::instance().make(parse_compact_scheme(spec, "schemes"),
                                          geometry_spec{});
}

storage_config config_of(const scheme_recipe& recipe) {
  storage_config config;  // 4096-row tiles, 32-bit words
  if (recipe.regions.empty()) {
    config.spare_rows_per_tile = recipe.spare_rows;
  } else {
    config.regions = recipe.regions;
  }
  return config;
}

/// The tile's regions as protected_memory lays them out: the recipe's
/// table, or one region spanning the tile with the recipe's spares.
std::vector<memory_region> regions_of(const scheme_recipe& recipe,
                                      const storage_config& config) {
  if (!recipe.regions.empty()) return recipe.regions;
  return {memory_region{0, config.rows_per_tile - 1, recipe.spare_rows}};
}

/// Two tiles and a partial third, of uniformly random 32-bit words.
std::vector<word_t> random_words(std::uint64_t seed) {
  rng gen(seed);
  std::vector<word_t> words(2 * 4096 + 1234);
  for (word_t& w : words) w = gen() & word_mask(32);
  return words;
}

struct injector_case {
  std::string label;
  fault_injector inject;
};

/// Exact, binomial, per-region binomial and per-region exact injectors
/// placing about `n` faults in a tile of `cells` storage cells.
std::vector<injector_case> injectors(std::uint64_t n, std::uint64_t cells,
                                     const std::vector<memory_region>& regions,
                                     fault_polarity polarity) {
  const double pcell = static_cast<double>(n) / static_cast<double>(cells);
  std::uint64_t tile_rows = 0;
  for (const memory_region& r : regions) tile_rows += r.rows() + r.spare_rows;
  std::vector<region_operating_point> points;
  std::vector<std::uint64_t> counts;
  std::uint64_t placed = 0;
  for (std::size_t i = 0; i < regions.size(); ++i) {
    points.push_back({regions[i], pcell});
    // Split n in proportion to each region's rows (the last takes the
    // rest), capped at the region's cells.
    const std::uint64_t rows = regions[i].rows() + regions[i].spare_rows;
    const std::uint64_t share =
        i + 1 == regions.size() ? n - placed : n * rows / tile_rows;
    counts.push_back(std::min(share, rows * (cells / tile_rows)));
    placed += share;
  }
  return {
      {"exact", exact_fault_injector(n, polarity)},
      {"binomial", binomial_fault_injector(pcell, polarity)},
      {"region", region_fault_injector(points, polarity)},
      {"region-exact", region_exact_fault_injector(regions, counts, polarity)},
  };
}

class ReadbackOracle : public ::testing::TestWithParam<std::string> {};

/// The invariant the row-sparse path rests on: with no faults, the
/// full-tile pass through every scheme's codecs returns its input.
TEST_P(ReadbackOracle, FaultFreeReadbackReturnsItsInput) {
  const scheme_recipe recipe = resolve(GetParam());
  const storage_config config = config_of(recipe);
  const std::vector<word_t> words = random_words(3);
  rng gen(5);
  pipeline_stats stats;
  EXPECT_EQ(store_and_readback_words_reference(
                words, config, recipe.factory, no_fault_injector(), gen,
                &stats),
            words);
  EXPECT_EQ(stats.tiles, 3u);
  EXPECT_EQ(stats.injected_faults, 0u);
  EXPECT_EQ(stats.corrected_words, 0u);
  EXPECT_EQ(stats.uncorrectable_words, 0u);
}

/// Row-sparse == full-tile, bit for bit: restored words, all four
/// pipeline_stats fields and the stream position after the pass, for
/// every polarity (flip, stuck-at, and the mixed population with both
/// transition kinds), every injector and 0 / 1 / 80 / 158 / dense
/// fault counts per tile.
TEST_P(ReadbackOracle, RowSparseMatchesFullTile) {
  const scheme_recipe recipe = resolve(GetParam());
  const storage_config config = config_of(recipe);
  const std::vector<memory_region> regions = regions_of(recipe, config);
  const std::uint64_t cells =
      protected_memory(config.rows_per_tile,
                       recipe.factory(config.rows_per_tile), regions)
          .storage_geometry()
          .cells();
  const std::vector<word_t> words = random_words(7);
  const std::string path =
      sram_array::default_fault_path() == fault_path::reference ? "reference"
                                                                : "compiled";
  std::uint64_t seed = 100;
  std::uint64_t faulty_trials = 0;
  for (const fault_polarity polarity :
       {fault_polarity::flip, fault_polarity::random_stuck,
        fault_polarity::mixed}) {
    for (const std::uint64_t n :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{80},
          std::uint64_t{158}, cells / 8}) {
      for (const injector_case& c : injectors(n, cells, regions, polarity)) {
        const std::string point = GetParam() + " " + name_of(polarity) + " " +
                                  c.label + " n=" + std::to_string(n) +
                                  " path=" + path;
        ++seed;
        rng sparse_gen(seed);
        rng full_gen(seed);
        pipeline_stats sparse_stats;
        pipeline_stats full_stats;
        const std::vector<word_t> sparse = store_and_readback_words(
            words, config, recipe.factory, c.inject, sparse_gen, &sparse_stats);
        const std::vector<word_t> full = store_and_readback_words_reference(
            words, config, recipe.factory, c.inject, full_gen, &full_stats);
        ASSERT_EQ(sparse, full) << point;
        EXPECT_EQ(sparse_stats.tiles, full_stats.tiles) << point;
        EXPECT_EQ(sparse_stats.injected_faults, full_stats.injected_faults)
            << point;
        EXPECT_EQ(sparse_stats.corrected_words, full_stats.corrected_words)
            << point;
        EXPECT_EQ(sparse_stats.uncorrectable_words,
                  full_stats.uncorrectable_words)
            << point;
        EXPECT_EQ(sparse_gen(), full_gen()) << point;
        if (full_stats.injected_faults > 0) ++faulty_trials;
      }
    }
  }
  EXPECT_GT(faulty_trials, 40u);  // the sweep really injected faults
}

INSTANTIATE_TEST_SUITE_P(
    Registry, ReadbackOracle, ::testing::ValuesIn(registry_schemes()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& ch : name) {
        if (std::isalnum(static_cast<unsigned char>(ch)) == 0) ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace urmem
