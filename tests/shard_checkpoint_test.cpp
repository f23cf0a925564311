// Tests of sharded sweep execution and resumable checkpoints: shard
// spec validation (malformed/out-of-range text fails before any work),
// stride partitioning (shards cover the grid exactly once, shard 0/1 is
// byte-identical to the unsharded walk), atomic per-point checkpoint
// files keyed by the canonical spec hash (corrupt files re-run, stale
// hashes are rejected), and merge_checkpoints reconstructing the exact
// unsharded report while failing loudly on missing points, conflicting
// duplicates, and cross-campaign directories.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "urmem/common/fs.hpp"
#include "urmem/common/hash.hpp"
#include "urmem/scenario/checkpoint.hpp"
#include "urmem/scenario/scenario_runner.hpp"

namespace urmem {
namespace {

// Integer-exact 6-point grid (bist-march is pure fixture arithmetic),
// fast enough to run dozens of times per suite.
scenario_spec grid_spec() {
  return scenario_spec::parse_text(R"json({
    "name": "shard-grid",
    "geometry": {"rows_per_tile": 64},
    "seeds": {"root": 5},
    "workload": {"name": "bist-march", "faults": 4, "nfm": 3},
    "sweep": [
      {"param": "workload.faults", "values": [2, 4, 6]},
      {"param": "seeds.root", "values": [1, 2]}
    ]
  })json");
}

// Fresh per-test scratch directory (gtest's TempDir is shared).
std::string scratch_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "urmem_shard_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string report_dump(const scenario_report& report) {
  return report.to_json().dump();
}

// ------------------------------------------------------------ shard_spec

TEST(ShardSpec, ParsesIndexSlashCount) {
  const shard_spec shard = shard_spec::parse("2/5");
  EXPECT_EQ(shard.index, 2u);
  EXPECT_EQ(shard.count, 5u);
  EXPECT_EQ(shard.label(), "2/5");
  EXPECT_TRUE(shard.owns(2));
  EXPECT_TRUE(shard.owns(7));
  EXPECT_FALSE(shard.owns(3));

  const shard_spec whole = shard_spec::parse("0/1");
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_TRUE(whole.owns(i));
}

TEST(ShardSpec, ShardsPartitionEveryIndexExactlyOnce) {
  constexpr std::uint64_t kCount = 4;
  for (std::uint64_t i = 0; i < 40; ++i) {
    unsigned owners = 0;
    for (std::uint64_t s = 0; s < kCount; ++s) {
      if ((shard_spec{s, kCount}).owns(i)) ++owners;
    }
    EXPECT_EQ(owners, 1u) << "index " << i;
  }
}

TEST(ShardSpec, MalformedTextFailsBeforeAnyWork) {
  for (const char* text : {"", "1", "3/3", "4/3", "0/0", "a/b", "1/", "/2",
                           "1/2/3", "-1/2", " 1/2", "1/2 ", "1.5/3"}) {
    try {
      (void)shard_spec::parse(text);
      FAIL() << "expected spec_error for '" << text << "'";
    } catch (const spec_error& error) {
      EXPECT_EQ(error.field(), "shard") << text;
    }
  }
}

TEST(ShardSpec, RunnerRejectsInvalidShardDirectly) {
  const scenario_runner runner(grid_spec());
  std::ostringstream out;
  run_options options;
  options.shard = {3, 3};
  EXPECT_THROW((void)runner.run(out, options), spec_error);
  options.shard = {0, 0};
  EXPECT_THROW((void)runner.run(out, options), spec_error);
}

// -------------------------------------------------------- sharded runs

TEST(ShardedRun, ShardZeroOfOneIsByteIdenticalToUnsharded) {
  const scenario_runner runner(grid_spec());
  std::ostringstream unsharded_text;
  const scenario_report unsharded = runner.run(unsharded_text);

  std::ostringstream sharded_text;
  const scenario_report sharded = runner.run(sharded_text, run_options{});
  EXPECT_EQ(report_dump(unsharded), report_dump(sharded));
  EXPECT_EQ(unsharded_text.str(), sharded_text.str());
  EXPECT_EQ(sharded.executed_points, 6u);
  EXPECT_EQ(sharded.cached_points, 0u);
}

TEST(ShardedRun, ShardsKeepExpansionOrderAndPartitionTheGrid) {
  const scenario_runner runner(grid_spec());
  std::ostringstream text;
  const scenario_report all = runner.run(text);
  ASSERT_EQ(all.points.size(), 6u);

  std::vector<std::string> sharded_labels;
  for (std::uint64_t s = 0; s < 3; ++s) {
    run_options options;
    options.shard = {s, 3};
    std::ostringstream shard_text;
    const scenario_report shard = runner.run(shard_text, options);
    EXPECT_EQ(shard.points.size(), 2u) << "shard " << s;
    for (std::size_t k = 0; k < shard.points.size(); ++k) {
      // Shard s owns grid indices s, s+3, ... in expansion order.
      EXPECT_EQ(shard.points[k].label, all.points[s + 3 * k].label);
      sharded_labels.push_back(shard.points[k].label);
    }
  }
  EXPECT_EQ(std::set<std::string>(sharded_labels.begin(),
                                  sharded_labels.end())
                .size(),
            6u);
}

// ------------------------------------------------------- checkpointing

TEST(Checkpoint, RunWritesManifestAndOnePointFilePerGridPoint) {
  const std::string dir = scratch_dir("writes");
  const scenario_runner runner(grid_spec());
  run_options options;
  options.checkpoint_dir = dir;
  std::ostringstream text;
  const scenario_report report = runner.run(text, options);
  EXPECT_EQ(report.executed_points, 6u);

  EXPECT_TRUE(std::filesystem::exists(dir + "/manifest.json"));
  for (std::uint64_t i = 0; i < 6; ++i) {
    const std::string path =
        dir + "/point_00000" + std::to_string(i) + ".json";
    EXPECT_TRUE(std::filesystem::exists(path)) << path;
  }
  // Atomic publication leaves no temp files behind.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().extension(), ".json") << entry.path();
  }

  // The merged single directory reproduces the in-process report.
  const scenario_report merged = merge_checkpoints({dir});
  EXPECT_EQ(report_dump(report), report_dump(merged));
}

TEST(Checkpoint, MergedShardDirsAreByteIdenticalToUnsharded) {
  const scenario_runner runner(grid_spec());
  std::ostringstream text;
  const scenario_report unsharded = runner.run(text);

  std::vector<std::string> dirs;
  for (std::uint64_t s = 0; s < 3; ++s) {
    const std::string dir = scratch_dir("merge" + std::to_string(s));
    dirs.push_back(dir);
    run_options options;
    options.shard = {s, 3};
    options.checkpoint_dir = dir;
    std::ostringstream shard_text;
    (void)runner.run(shard_text, options);
  }
  const scenario_report merged = merge_checkpoints(dirs);
  EXPECT_EQ(report_dump(unsharded), report_dump(merged));
}

TEST(Checkpoint, ShardsMayShareOneDirectory) {
  const std::string dir = scratch_dir("shared");
  const scenario_runner runner(grid_spec());
  std::ostringstream text;
  const scenario_report unsharded = runner.run(text);
  for (std::uint64_t s = 0; s < 3; ++s) {
    run_options options;
    options.shard = {s, 3};
    options.checkpoint_dir = dir;
    std::ostringstream shard_text;
    (void)runner.run(shard_text, options);
  }
  const scenario_report merged = merge_checkpoints({dir});
  EXPECT_EQ(report_dump(unsharded), report_dump(merged));
}

TEST(Checkpoint, ResumeRunsOnlyMissingPoints) {
  const std::string dir = scratch_dir("resume");
  const scenario_runner runner(grid_spec());
  run_options options;
  options.checkpoint_dir = dir;

  std::ostringstream first_text;
  const scenario_report first = runner.run(first_text, options);
  EXPECT_EQ(first.executed_points, 6u);

  // A full relaunch recomputes nothing...
  std::ostringstream resumed_text;
  const scenario_report resumed = runner.run(resumed_text, options);
  EXPECT_EQ(resumed.executed_points, 0u);
  EXPECT_EQ(resumed.cached_points, 6u);
  EXPECT_EQ(report_dump(first), report_dump(resumed));
  // ...and cached points print no workload text.
  EXPECT_TRUE(resumed_text.str().empty());

  // Deleting two checkpoints re-runs exactly those points.
  std::filesystem::remove(dir + "/point_000001.json");
  std::filesystem::remove(dir + "/point_000004.json");
  std::ostringstream partial_text;
  const scenario_report partial = runner.run(partial_text, options);
  EXPECT_EQ(partial.executed_points, 2u);
  EXPECT_EQ(partial.cached_points, 4u);
  EXPECT_EQ(report_dump(first), report_dump(partial));
}

TEST(Checkpoint, MaxPointsBudgetStopsAndResumeCompletes) {
  const std::string dir = scratch_dir("budget");
  const scenario_runner runner(grid_spec());
  std::ostringstream text;
  const scenario_report unsharded = runner.run(text);

  run_options options;
  options.checkpoint_dir = dir;
  options.max_points = 2;
  std::ostringstream budget_text;
  const scenario_report killed = runner.run(budget_text, options);
  EXPECT_EQ(killed.executed_points, 2u);
  EXPECT_EQ(killed.points.size(), 2u);

  options.max_points = 0;
  std::ostringstream resume_text;
  const scenario_report resumed = runner.run(resume_text, options);
  EXPECT_EQ(resumed.cached_points, 2u);
  EXPECT_EQ(resumed.executed_points, 4u);
  EXPECT_EQ(report_dump(unsharded), report_dump(resumed));
  EXPECT_EQ(report_dump(unsharded), report_dump(merge_checkpoints({dir})));
}

TEST(Checkpoint, TruncatedOrCorruptPointFileIsTreatedAsMissing) {
  const std::string dir = scratch_dir("corrupt");
  const scenario_runner runner(grid_spec());
  run_options options;
  options.checkpoint_dir = dir;
  std::ostringstream text;
  const scenario_report first = runner.run(text, options);

  // Truncate one file mid-document and replace another with valid JSON
  // of the wrong shape; both must silently re-run.
  {
    const std::string path = dir + "/point_000002.json";
    std::string content = *read_file(path);
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << content.substr(0, content.size() / 2);
  }
  {
    std::ofstream out(dir + "/point_000005.json",
                      std::ios::trunc | std::ios::binary);
    out << "{\"not\": \"a checkpoint\"}\n";
  }

  std::ostringstream resumed_text;
  const scenario_report resumed = runner.run(resumed_text, options);
  EXPECT_EQ(resumed.executed_points, 2u);
  EXPECT_EQ(resumed.cached_points, 4u);
  EXPECT_EQ(report_dump(first), report_dump(resumed));
}

TEST(Checkpoint, StaleSpecHashIsRejectedNotRecomputed) {
  const std::string dir = scratch_dir("stale");
  scenario_spec spec = grid_spec();
  const scenario_runner runner(spec);
  run_options options;
  options.checkpoint_dir = dir;
  std::ostringstream text;
  (void)runner.run(text, options);

  // Any semantic change hashes differently...
  scenario_spec changed = spec;
  changed.seeds.root = 6;
  EXPECT_NE(spec.canonical_hash(), changed.canonical_hash());

  // ...and reusing the directory for it fails loudly at the manifest.
  const scenario_runner changed_runner(changed);
  std::ostringstream changed_text;
  try {
    (void)changed_runner.run(changed_text, options);
    FAIL() << "expected spec_error";
  } catch (const spec_error& error) {
    EXPECT_EQ(error.field(), "checkpoint-dir");
    EXPECT_NE(std::string(error.what()).find("stale"), std::string::npos);
  }

  // A lone stale point file (manifest gone) is rejected at load time.
  std::filesystem::remove(dir + "/manifest.json");
  const checkpoint_store store(dir, changed.canonical_hash());
  EXPECT_THROW((void)store.load_point(0), spec_error);
}

// -------------------------------------------------------------- merging

TEST(Merge, FailsLoudlyOnMissingPoints) {
  const std::string dir = scratch_dir("missing");
  const scenario_runner runner(grid_spec());
  run_options options;
  options.checkpoint_dir = dir;
  std::ostringstream text;
  (void)runner.run(text, options);
  std::filesystem::remove(dir + "/point_000003.json");
  try {
    (void)merge_checkpoints({dir});
    FAIL() << "expected spec_error";
  } catch (const spec_error& error) {
    EXPECT_NE(std::string(error.what()).find("3"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("no checkpoint"),
              std::string::npos);
  }
}

TEST(Merge, FailsLoudlyOnCorruptPointFiles) {
  const std::string dir = scratch_dir("merge_corrupt");
  const scenario_runner runner(grid_spec());
  run_options options;
  options.checkpoint_dir = dir;
  std::ostringstream text;
  (void)runner.run(text, options);
  {
    const std::string path = dir + "/point_000000.json";
    std::string content = *read_file(path);
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << content.substr(0, content.size() / 3);
  }
  EXPECT_THROW((void)merge_checkpoints({dir}), spec_error);
}

TEST(Merge, FailsLoudlyOnConflictingDuplicates) {
  const std::string dir_a = scratch_dir("dup_a");
  const std::string dir_b = scratch_dir("dup_b");
  const scenario_spec spec = grid_spec();
  const scenario_runner runner(spec);
  run_options options;
  options.checkpoint_dir = dir_a;
  std::ostringstream text;
  const scenario_report report = runner.run(text, options);

  // Same campaign in dir_b, but point 2's payload tampered with.
  options.checkpoint_dir = dir_b;
  std::ostringstream text_b;
  (void)runner.run(text_b, options);
  const checkpoint_store store(dir_b, spec.canonical_hash());
  scenario_point_result tampered = report.points[2];
  tampered.output.trials += 1;
  store.store_point(2, report.points.size(), tampered);

  try {
    (void)merge_checkpoints({dir_a, dir_b});
    FAIL() << "expected spec_error";
  } catch (const spec_error& error) {
    EXPECT_NE(std::string(error.what()).find("conflicting"),
              std::string::npos);
  }
  // Identical duplicates are fine: restoring the true payload (the
  // tampered file parses as a valid checkpoint, so a resumed run would
  // keep it) makes the two full directories merge cleanly.
  store.store_point(2, report.points.size(), report.points[2]);
  const scenario_report merged = merge_checkpoints({dir_a, dir_b});
  EXPECT_EQ(report_dump(report), report_dump(merged));
}

TEST(Merge, RejectsDirectoriesFromDifferentCampaigns) {
  const std::string dir_a = scratch_dir("cross_a");
  const std::string dir_b = scratch_dir("cross_b");
  scenario_spec spec = grid_spec();
  {
    const scenario_runner runner(spec);
    run_options options;
    options.checkpoint_dir = dir_a;
    std::ostringstream text;
    (void)runner.run(text, options);
  }
  spec.seeds.root = 777;
  {
    const scenario_runner runner(spec);
    run_options options;
    options.checkpoint_dir = dir_b;
    std::ostringstream text;
    (void)runner.run(text, options);
  }
  EXPECT_THROW((void)merge_checkpoints({dir_a, dir_b}), spec_error);
  EXPECT_THROW((void)merge_checkpoints({scratch_dir("empty")}), spec_error);
  EXPECT_THROW((void)merge_checkpoints({}), spec_error);
}

TEST(MergeCheckpoints, DeeplyNestedFilesFailWithTheirParsePosition) {
  const std::string deep(200000, '[');
  const auto expect_position = [](const std::string& dir) {
    try {
      (void)merge_checkpoints({dir});
      FAIL() << "expected spec_error";
    } catch (const spec_error& error) {
      EXPECT_NE(std::string(error.what()).find("line 1, column 257"),
                std::string::npos)
          << error.what();
    }
  };
  // As the manifest...
  const std::string manifest_dir = scratch_dir("deep_manifest");
  write_file_atomic(manifest_dir + "/manifest.json", deep);
  expect_position(manifest_dir);

  // ...and as a point file of an otherwise valid checkpoint directory.
  const scenario_spec spec = grid_spec();
  const std::string point_dir = scratch_dir("deep_point");
  const scenario_runner runner(spec);
  run_options options;
  options.checkpoint_dir = point_dir;
  std::ostringstream text;
  (void)runner.run(text, options);
  write_file_atomic(point_dir + "/point_000000.json", deep);
  expect_position(point_dir);
}

// ---------------------------------------------------- fs + hash helpers

TEST(FsHelpers, AtomicWriteCreatesParentDirsAndLeavesNoTemp) {
  const std::string dir = scratch_dir("fs");
  const std::string path = dir + "/a/b/c.json";
  write_file_atomic(path, "payload");
  EXPECT_EQ(*read_file(path), "payload");
  write_file_atomic(path, "replaced");
  EXPECT_EQ(*read_file(path), "replaced");
  unsigned files = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) ++files;
  }
  EXPECT_EQ(files, 1u);
  EXPECT_FALSE(read_file(dir + "/nope.json").has_value());

  // A bare file name publishes (and syncs) relative to the working
  // directory; no temp sibling survives there either.
  const std::string bare = "urmem_fs_atomic_bare.json";
  write_file_atomic(bare, "bare");
  EXPECT_EQ(*read_file(bare), "bare");
  for (const auto& entry : std::filesystem::directory_iterator(".")) {
    EXPECT_EQ(entry.path().filename().string().find(bare + ".tmp."),
              std::string::npos)
        << entry.path();
  }
  std::filesystem::remove(bare);
}

TEST(SpecHash, IsStableAndSensitive) {
  const scenario_spec spec = grid_spec();
  EXPECT_EQ(spec.canonical_hash(), grid_spec().canonical_hash());
  EXPECT_EQ(spec.canonical_hash().size(), 16u);
  // Round-tripping through JSON normalization preserves the hash.
  EXPECT_EQ(spec.canonical_hash(),
            scenario_spec::from_json(spec.to_json()).canonical_hash());
  // Each semantic knob moves it.
  scenario_spec changed = spec;
  changed.run.threads = 4;
  EXPECT_NE(spec.canonical_hash(), changed.canonical_hash());
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
  EXPECT_EQ(to_hex16(0), "0000000000000000");
  EXPECT_EQ(to_hex16(0xdeadbeefULL), "00000000deadbeef");
}

}  // namespace
}  // namespace urmem
