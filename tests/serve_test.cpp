// Tests for the serving tier (src/serve): construction validation, the
// concurrent determinism contract (integer counters bit-identical at
// any client count and through the reference fault path), canonical-
// store idempotence, live epoch stepping with deferred retirement, and
// the closed-loop driver's accounting.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "urmem/common/rng.hpp"
#include "urmem/lifecycle/fault_timeline.hpp"
#include "urmem/lifecycle/lifecycle_manager.hpp"
#include "urmem/memory/fault_sampler.hpp"
#include "urmem/scenario/scenario_spec.hpp"
#include "urmem/scenario/workload_registry.hpp"
#include "urmem/serve/memory_service.hpp"
#include "urmem/serve/service_driver.hpp"

namespace urmem {
namespace {

// Small but non-trivial: two tiles, live arrivals + intermittents,
// scrub every epoch, remap retirement with a tiny pool.
scenario_spec serve_spec_text() {
  return scenario_spec::parse_text(R"({
    "name": "serve-test",
    "geometry": {"rows_per_tile": 256},
    "fault": {"polarity": "flip"},
    "seeds": {"root": 21, "app": 7},
    "scrub": {"interval": 1},
    "retire": {"policy": "remap", "spare_rows": 2},
    "serve": {"clients": 2, "requests": 3000, "requests_per_epoch": 600,
              "initial_faults": 32, "arrivals_per_epoch": 6,
              "intermittent_cells": 4},
    "schemes": ["none", "pecc"]})");
}

TEST(MemoryService, RejectsNonDeterministicConfigurations) {
  // Transition faults latch write history: outcomes would depend on the
  // store interleaving, so the service refuses them up front.
  try {
    memory_service service(
        scenario_spec::parse_text(R"({"fault": {"polarity": "mixed"}})"));
    FAIL() << "expected spec_error";
  } catch (const spec_error& error) {
    EXPECT_EQ(error.field(), "fault.polarity");
  }
  // The fault population is drawn exactly from serve.initial_faults;
  // an operating point on the fault section has nothing to control.
  try {
    memory_service service(
        scenario_spec::parse_text(R"({"fault": {"pcell": 1e-3}})"));
    FAIL() << "expected spec_error";
  } catch (const spec_error& error) {
    EXPECT_EQ(error.field(), "fault");
  }
}

TEST(MemoryService, StoresAreCanonicalAndIdempotent) {
  memory_service service(serve_spec_text());
  ASSERT_EQ(service.tile_count(), 2u);
  const word_t before = service.canonical_word(17);
  service.store(17);
  service.store(17);
  service.readback(17);
  EXPECT_EQ(service.canonical_word(17), before);

  const service_snapshot snap = service.stats_snapshot();
  EXPECT_EQ(snap.stores, 2u);
  EXPECT_EQ(snap.readbacks, 1u);
  EXPECT_EQ(snap.requests, 3u);
  EXPECT_EQ(snap.snapshots, 1u);
  for (const auto& tile : snap.tiles) {
    EXPECT_EQ(tile.traffic.stores, 2u);
    EXPECT_EQ(tile.traffic.readbacks, 1u);
  }
}

TEST(MemoryService, EpochSteppingAgesTilesAndDefersRetirement) {
  memory_service service(serve_spec_text());
  EXPECT_EQ(service.epoch(), 0u);
  for (int i = 0; i < 4; ++i) service.step_epoch();
  service.drain();
  EXPECT_EQ(service.epoch(), 4u);

  const service_snapshot snap = service.stats_snapshot();
  EXPECT_EQ(snap.epoch_steps, 4u);
  for (const auto& tile : snap.tiles) {
    EXPECT_EQ(tile.life.epochs, 4u);
    EXPECT_EQ(tile.life.scrub_passes, 4u);  // interval 1
    EXPECT_EQ(tile.life.injected_faults, 4u * 6u);
    EXPECT_EQ(tile.life.rows_scrubbed, 4u * 256u);
  }
}

// Standalone replay of serve tile `index`: the same recipe, region
// table, `serve.tile.<index>` fault stream, canonical data and boundary
// order as memory_service, driven single-threaded without traffic. Its
// residual_rows() at each epoch is the oracle for quality_query.
class tile_replay {
 public:
  tile_replay(const scenario_spec& spec, std::size_t index,
              const memory_service& service) {
    const std::vector<scheme_recipe> recipes = resolve_schemes(spec);
    const scheme_recipe& recipe = recipes.at(index);
    const std::uint32_t rows = spec.geometry.rows_per_tile;
    std::vector<memory_region> regions = recipe.regions;
    if (regions.empty()) {
      regions.push_back(memory_region{0, rows - 1, recipe.spare_rows, 0});
    }
    regions[spec.retire.reliable_region].spare_rows += spec.retire.spare_rows;
    memory_.emplace(rows, recipe.factory(rows), std::move(regions));

    rng gen = named_stream_rng(spec.seeds.root,
                               "serve.tile." + std::to_string(index));
    fault_map initial = sample_fault_map_exact(memory_->storage_geometry(),
                                               spec.serve.initial_faults, gen,
                                               spec.fault.polarity);
    memory_->set_fault_map(initial);
    timeline_config config;
    config.arrivals_per_epoch = spec.serve.arrivals_per_epoch;
    config.intermittent_cells = spec.serve.intermittent_cells;
    config.polarity = spec.fault.polarity;
    config.seed = gen();
    manager_.emplace(*memory_, fault_timeline(std::move(initial), config),
                     spec.scrub.config(), spec.retire.config());

    std::vector<word_t> words(rows);
    for (std::uint32_t row = 0; row < rows; ++row) {
      words[row] = service.canonical_word(row);
    }
    manager_->set_data_source(
        [words](std::uint32_t row) { return words[row]; });
    hooks_.rewrite_word = [words](std::uint32_t row, word_t) {
      return words[row];
    };
    memory_->write_block(0, words);
  }
  tile_replay(const tile_replay&) = delete;  // the manager borrows memory_
  tile_replay& operator=(const tile_replay&) = delete;

  [[nodiscard]] std::uint64_t residual_rows() const {
    return memory_->residual_rows();
  }

  /// memory_service::step_epoch for one tile: spend the last pass's
  /// findings, age one epoch, then run the due scrub pass.
  void step_epoch() {
    if (!alive_) return;
    alive_ = manager_->apply_findings(findings_);
    findings_.clear();
    alive_ = alive_ && manager_->advance_epoch();
    if (alive_ && manager_->scrub_due()) {
      manager_->run_scrub_pass(findings_, &hooks_);
    }
  }

 private:
  std::optional<protected_memory> memory_;
  std::optional<lifecycle_manager> manager_;
  std::vector<scrub_finding> findings_;
  scrub_hooks hooks_;
  bool alive_ = true;
};

TEST(MemoryService, QualityQueryIsAPureFunctionOfTheEpoch) {
  // One query per epoch across fault arrivals and remap retirements:
  // each epoch's degraded_rows_seen delta must equal the standalone
  // replay's residual_rows() at that epoch, so a quality answer that is
  // not refreshed at the boundary shows up as a mismatch.
  scenario_spec spec = serve_spec_text();
  // Manufacture repair spends the 2-row pool on the initial faults; a
  // deeper pool leaves spares for runtime remap retirements.
  spec.retire.spare_rows = 40;
  memory_service service(spec);
  std::vector<std::unique_ptr<tile_replay>> replays;
  for (std::size_t index = 0; index < service.tile_count(); ++index) {
    replays.push_back(std::make_unique<tile_replay>(spec, index, service));
  }

  constexpr int epochs = 6;
  std::vector<std::uint64_t> seen(service.tile_count(), 0);
  std::vector<std::set<std::uint64_t>> answers(service.tile_count());
  service_snapshot snap;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    if (epoch > 0) {
      service.step_epoch();
      for (const auto& replay : replays) replay->step_epoch();
    }
    service.quality_query();
    snap = service.stats_snapshot();
    for (std::size_t index = 0; index < snap.tiles.size(); ++index) {
      const std::uint64_t total = snap.tiles[index].traffic.degraded_rows_seen;
      const std::uint64_t expected = replays[index]->residual_rows();
      EXPECT_EQ(total - seen[index], expected)
          << "tile " << index << " epoch " << epoch;
      answers[index].insert(expected);
      seen[index] = total;
    }
  }

  // The queries must have covered what a stale cache would miss:
  // answers that change between epochs, and remap retirements applied
  // at a boundary before the last query.
  std::uint64_t retirements = 0;
  for (std::size_t index = 0; index < snap.tiles.size(); ++index) {
    const auto& tile = snap.tiles[index];
    EXPECT_EQ(tile.life.injected_faults, (epochs - 1) * 6u);
    EXPECT_GT(answers[index].size(), 1u) << "tile " << index;
    retirements += tile.life.ce_retirements + tile.life.ue_retirements;
  }
  EXPECT_GT(retirements, 0u);
}

TEST(ServiceDriver, CountersAreClientCountInvariant) {
  const scenario_spec spec = serve_spec_text();
  std::string baseline;
  for (const std::uint32_t clients : {1u, 2u, 5u, 12u}) {
    memory_service service(spec);
    driver_config config = driver_config_from(spec);
    config.clients = clients;
    const drive_report report = drive(service, config);
    const std::string dump = report.counters.to_json().dump();
    if (baseline.empty()) {
      baseline = dump;
    } else {
      EXPECT_EQ(dump, baseline) << "clients=" << clients;
    }
    EXPECT_EQ(report.executed, spec.serve.requests);
    EXPECT_EQ(report.latency.count(), report.executed);
    EXPECT_EQ(report.counters.requests, report.executed);
    // The per-kind histograms split the mixed one by request kind.
    EXPECT_EQ(report.store_latency.count(), report.counters.stores);
    EXPECT_EQ(report.readback_latency.count(), report.counters.readbacks);
    EXPECT_EQ(report.quality_latency.count(),
              report.counters.quality_queries);
    // Boundaries strictly inside the budget: 3000/600 - 1 = 4 steps.
    EXPECT_EQ(report.counters.epoch_steps, 4u);
    EXPECT_GT(report.requests_per_second, 0.0);
  }
  EXPECT_FALSE(baseline.empty());
}

TEST(ServiceDriver, ReferenceFaultPathIsBitIdentical) {
  const scenario_spec spec = serve_spec_text();
  driver_config config = driver_config_from(spec);
  config.clients = 3;

  memory_service fast(spec);
  const drive_report fast_report = drive(fast, config);

  memory_service oracle(spec);
  oracle.set_fault_path(fault_path::reference);
  const drive_report oracle_report = drive(oracle, config);

  EXPECT_EQ(fast_report.counters.to_json().dump(),
            oracle_report.counters.to_json().dump());
}

TEST(ServiceDriver, LifecycleRunsAndDecodersFireUnderTraffic) {
  // The scrubber must actually patrol during the run and the fault
  // population must be dense enough that decode outcomes beyond
  // "clean" show up — the serving tier is not a no-op shell around the
  // batch workloads.
  const scenario_spec spec = serve_spec_text();
  memory_service service(spec);
  const drive_report report = drive(service, driver_config_from(spec));

  std::uint64_t scrub_passes = 0;
  std::uint64_t decode_outcomes = 0;
  for (const auto& tile : report.counters.tiles) {
    scrub_passes += tile.life.scrub_passes;
    decode_outcomes +=
        tile.traffic.corrected_reads + tile.traffic.uncorrectable_reads +
        tile.traffic.word_errors;
    EXPECT_EQ(tile.traffic.clean_reads + tile.traffic.corrected_reads +
                  tile.traffic.uncorrectable_reads,
              tile.traffic.readbacks);
  }
  EXPECT_GT(scrub_passes, 0u);
  EXPECT_GT(decode_outcomes, 0u);
}

}  // namespace
}  // namespace urmem
