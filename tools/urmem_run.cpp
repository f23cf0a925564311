// urmem-run — the single driver of the declarative scenario API.
//
// One binary runs every scenario experiment, the paper's Fig. 5, Fig. 7
// and Table 1 included (scenarios/*.json; see README): it loads a
// scenario_spec from a JSON file and/or dotted key=value overrides,
// expands the sweep grid, runs the named workload over the named
// schemes, prints the human report to stdout and (optionally) writes
// the deterministic JSON report for CI goldens.
//
// Usage:
//   urmem-run [spec.json] [key=value ...] [flags]
//
//   urmem-run --list-schemes
//   urmem-run --list-workloads
//   urmem-run scenarios/fig7_smoke.json --out=report.json
//   urmem-run workload=fig5-mse schemes=none,shuffle:nfm=1,pecc
//             pcell=5e-6 workload.runs=100000 threads=4
//   urmem-run workload=fig7-quality schemes=none,pecc,shuffle:nfm=1
//             pcell=1e-3 sweep.fault.pcell=1e-4,1e-3 --print-spec
//
// Flags: --list-schemes --list-workloads --print-spec --out=FILE
//        --shard=I/N --checkpoint-dir=DIR --max-points=K --help
// Override shorthands: seed, threads, batch, pcell, vdd, polarity, rows
// Region overrides: regions=<range>=<scheme,...>:<range>=... and
// regions.<range>.<key>=value (see scenario_spec.hpp for the schema).
//
// Sharded campaigns: --shard=I/N runs only the grid points whose
// expansion index is congruent to I modulo N (same expansion order as
// an unsharded run; --shard=0/1 is byte-identical to today). With
// --checkpoint-dir each completed point is published as one atomic JSON
// file keyed by the spec's canonical hash, so a killed shard relaunched
// with the same directory re-runs only missing points; `urmem-merge`
// folds the per-point files back into the exact unsharded report.
//
// Exit codes: 0 success, 2 spec/flag validation error (before any work
// spawns), 1 unexpected runtime error.
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "urmem/common/cli.hpp"
#include "urmem/common/fs.hpp"
#include "urmem/scenario/checkpoint.hpp"
#include "urmem/scenario/scenario_runner.hpp"
#include "urmem/scenario/scheme_registry.hpp"
#include "urmem/scenario/workload_registry.hpp"

namespace {

constexpr std::string_view usage =
    "usage: urmem-run [spec.json] [key=value ...] [flags]\n"
    "\n"
    "  Runs one scenario: a workload (by registry name) over a list of\n"
    "  protection schemes (by registry name), optionally swept over a\n"
    "  parameter grid. The spec comes from a JSON file, dotted key=value\n"
    "  overrides, or both (overrides win).\n"
    "\n"
    "flags:\n"
    "  --list-schemes       print the scheme registry and exit\n"
    "  --list-workloads     print the workload registry and exit\n"
    "  --print-spec         print the normalized spec JSON and exit\n"
    "  --out=FILE           also write the deterministic JSON report to FILE\n"
    "                       (parent directories are created on demand)\n"
    "  --shard=I/N          run only grid points with index % N == I\n"
    "                       (0 <= I < N; point order is unchanged)\n"
    "  --checkpoint-dir=DIR write one atomic JSON file per completed grid\n"
    "                       point; a relaunch with the same DIR re-runs\n"
    "                       only missing points (merge with urmem-merge)\n"
    "  --max-points=K       stop after executing K points (checkpointed\n"
    "                       points are free) — crash-resume testing\n"
    "  --help               this text\n"
    "\n"
    "examples:\n"
    "  urmem-run workload=table1-apps seed=7\n"
    "  urmem-run workload=fig7-quality schemes=none,pecc,shuffle:nfm=1 \\\n"
    "            pcell=1e-3 workload.samples=10 threads=0\n"
    "  urmem-run scenarios/fig7_smoke.json --out=fig7.json\n"
    "  urmem-run scenarios/hrm_smoke.json --shard=1/3 --checkpoint-dir=ck/1\n";

template <typename Infos>
void print_registry(const Infos& infos) {
  std::size_t width = 0;
  for (const auto& info : infos) width = std::max(width, info.name.size());
  for (const auto& info : infos) {
    std::cout << info.name << std::string(width - info.name.size() + 2, ' ')
              << info.summary;
    if (!info.options_help.empty()) {
      std::cout << " (options: " << info.options_help << ")";
    }
    std::cout << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace urmem;

  const cli_spec cli{.tool = "urmem-run",
                     .usage = usage,
                     .flags = {{"--list-schemes"},
                               {"--list-workloads"},
                               {"--print-spec"},
                               {"--out", true},
                               {"--shard", true},
                               {"--checkpoint-dir", true},
                               {"--max-points", true}},
                     .accept_overrides = true,
                     .accept_positionals = true};
  const std::optional<cli_args> parsed =
      parse_cli(cli, argc, argv, std::cout, std::cerr);
  if (!parsed) return 2;
  if (parsed->help) return 0;
  if (parsed->has("--list-schemes")) {
    print_registry(scheme_registry::instance().list());
    return 0;
  }
  if (parsed->has("--list-workloads")) {
    print_registry(workload_registry::instance().list());
    return 0;
  }
  const std::string out_path = parsed->value_or("--out");
  const std::string shard_text = parsed->value_or("--shard");
  const std::string max_points_text = parsed->value_or("--max-points");
  const bool print_spec = parsed->has("--print-spec");
  run_options options;
  options.checkpoint_dir = parsed->value_or("--checkpoint-dir");

  try {
    // Flag validation precedes any spec loading or pool spawning:
    // `--shard=5/3` must exit 2 before a single trial runs.
    if (!shard_text.empty()) options.shard = shard_spec::parse(shard_text);
    if (!max_points_text.empty()) {
      options.max_points = parse_spec_u64("max-points", max_points_text);
      if (options.max_points == 0) {
        throw spec_error("max-points", "must be at least 1");
      }
    }

    const scenario_spec spec =
        load_spec(parsed->positionals, parsed->overrides);
    // Constructing the runner resolves the workload and every scheme, so
    // --print-spec rejects exactly what a run would reject.
    const scenario_runner runner(spec);
    if (print_spec) {
      std::cout << spec.to_json().dump() << "\n";
      return 0;
    }

    std::cerr << "scenario '" << spec.name << "': workload "
              << spec.workload.name << ", " << spec.schemes.size()
              << " scheme(s), " << runner.grid_size() << " grid point(s)\n";
    if (options.shard.count > 1) {
      std::uint64_t owned = 0;
      for (std::uint64_t i = 0; i < runner.grid_size(); ++i) {
        if (options.shard.owns(i)) ++owned;
      }
      std::cerr << "shard " << options.shard.label() << ": owns " << owned
                << " of " << runner.grid_size() << " grid point(s)\n";
    }
    const scenario_report report = runner.run(std::cout, options);
    std::cerr << "scenario done: " << report.points.size() << " point(s), "
              << report.total_trials << " trials\n";
    if (!options.checkpoint_dir.empty()) {
      std::cerr << "checkpoint: " << report.cached_points << " cached, "
                << report.executed_points << " executed under '"
                << options.checkpoint_dir << "'\n";
    }

    if (!out_path.empty()) {
      ensure_parent_dirs(out_path);
      std::ofstream out(out_path);
      if (!out) {
        std::cerr << "urmem-run: cannot write report to '" << out_path << "'\n";
        return 2;
      }
      out << report.to_json().dump() << "\n";
      std::cerr << "report: " << out_path << "\n";
    }
    return 0;
  } catch (const spec_error& error) {
    std::cerr << "urmem-run: " << error.what() << "\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "urmem-run: error: " << error.what() << "\n";
    return 1;
  }
}
