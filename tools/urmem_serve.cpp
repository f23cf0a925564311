// urmem-serve — long-running serving mode over protected-memory tiles.
//
// Builds a memory_service from an ordinary scenario spec (one hot tile
// per resolved scheme, tiered/HRM region tables included) and drives it
// with a closed-loop concurrent client pool while the fault lifecycle
// ages the tiles live: background scrub passes overlap request traffic
// and retirements land at epoch boundaries. Prints per-tile outcome
// counters (bit-identical at any --clients value) plus throughput and
// p50/p99/p99.9 service latency, overall and per request kind (wall
// clock — never golden-diffed).
//
// Usage:
//   urmem-serve [spec.json] [key=value ...] [flags]
//
//   urmem-serve scenarios/serve_smoke.json --clients=4
//   urmem-serve serve.requests=20000 serve.requests_per_epoch=2000
//               serve.initial_faults=64 scrub.interval=1
//
// Exit codes: 0 success, 2 spec/flag validation error, 1 runtime error.
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include "urmem/common/cli.hpp"
#include "urmem/common/fs.hpp"
#include "urmem/common/table.hpp"
#include "urmem/scenario/scenario_spec.hpp"
#include "urmem/serve/memory_service.hpp"
#include "urmem/serve/service_driver.hpp"

namespace {

constexpr std::string_view usage =
    "usage: urmem-serve [spec.json] [key=value ...] [flags]\n"
    "\n"
    "  Serves the spec's schemes as resident protected-memory tiles under\n"
    "  concurrent store/readback/quality traffic while the fault lifecycle\n"
    "  ages them live (see the spec's `serve`, `scrub` and `retire`\n"
    "  sections). Integer counters are bit-identical at any client count;\n"
    "  latency and throughput are wall-clock.\n"
    "\n"
    "flags:\n"
    "  --clients=N        client threads (overrides serve.clients)\n"
    "  --requests=M       request budget (overrides serve.requests)\n"
    "  --duration=SECS    stop issuing after SECS seconds even with budget\n"
    "                     left (counters stay exact but depend on timing)\n"
    "  --out=FILE         write the full JSON report (counters + latency)\n"
    "  --counters-out=FILE  write only the deterministic counter section\n"
    "                     (the golden-diffable part)\n"
    "  --print-spec       print the normalized spec JSON and exit\n"
    "  --help             this text\n"
    "\n"
    "examples:\n"
    "  urmem-serve scenarios/serve_smoke.json --clients=4\n"
    "  urmem-serve schemes=none,pecc serve.requests=20000 \\\n"
    "              serve.requests_per_epoch=2000 serve.initial_faults=64 \\\n"
    "              scrub.interval=1 retire.policy=remap\n";

void write_json(const std::string& path, const urmem::json_value& doc,
                const char* label) {
  urmem::ensure_parent_dirs(path);
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error(std::string("cannot write ") + label + " to '" +
                             path + "'");
  }
  out << doc.dump() << "\n";
  std::cerr << label << ": " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace urmem;

  const cli_spec cli{.tool = "urmem-serve",
                     .usage = usage,
                     .flags = {{"--print-spec"},
                               {"--clients", true},
                               {"--requests", true},
                               {"--duration", true},
                               {"--out", true},
                               {"--counters-out", true}},
                     .accept_overrides = true,
                     .accept_positionals = true};
  const std::optional<cli_args> parsed =
      parse_cli(cli, argc, argv, std::cout, std::cerr);
  if (!parsed) return 2;
  if (parsed->help) return 0;

  try {
    const scenario_spec spec =
        load_spec(parsed->positionals, parsed->overrides);
    // Building the service resolves the schemes and checks the spec
    // for serving, so --print-spec rejects exactly what a run would.
    memory_service service(spec);
    if (parsed->has("--print-spec")) {
      std::cout << spec.to_json().dump() << "\n";
      return 0;
    }

    driver_config config = driver_config_from(spec);
    if (parsed->has("--clients")) {
      const std::uint64_t clients =
          parse_spec_u64("clients", parsed->value_or("--clients"));
      if (clients == 0 || clients > 4096) {
        throw spec_error("clients", "must be in [1, 4096]");
      }
      config.clients = static_cast<std::uint32_t>(clients);
    }
    if (parsed->has("--requests")) {
      config.requests =
          parse_spec_u64("requests", parsed->value_or("--requests"));
    }
    if (parsed->has("--duration")) {
      config.duration_seconds =
          parse_spec_double("duration", parsed->value_or("--duration"));
      if (config.duration_seconds <= 0.0) {
        throw spec_error("duration", "must be positive");
      }
    }

    std::cerr << "serve '" << spec.name << "': " << service.tile_count()
              << " tile(s) x " << service.rows() << " rows, "
              << config.clients << " client(s), " << config.requests
              << " request budget\n";

    const drive_report report = drive(service, config);

    console_table table({"scheme", "stores", "readbacks", "corrected",
                         "uncorrectable", "word_errors", "retired", "marked",
                         "spares_left", "epochs"});
    for (const auto& tile : report.counters.tiles) {
      table.add_row(
          {tile.scheme, std::to_string(tile.traffic.stores),
           std::to_string(tile.traffic.readbacks),
           std::to_string(tile.traffic.corrected_reads),
           std::to_string(tile.traffic.uncorrectable_reads),
           std::to_string(tile.traffic.word_errors),
           std::to_string(tile.life.ce_retirements + tile.life.ue_retirements),
           std::to_string(tile.life.marked_rows),
           std::to_string(tile.spares_left),
           std::to_string(tile.life.epochs) +
               (tile.failed ? " (failstop)" : "")});
    }
    table.print(std::cout);
    std::cout << "\nrequests " << report.counters.requests << " ("
              << report.counters.stores << " stores, "
              << report.counters.readbacks << " readbacks, "
              << report.counters.quality_queries << " quality), "
              << report.counters.epoch_steps << " epoch step(s)\n";
    std::cout << "throughput " << format_double(report.requests_per_second, 4)
              << " req/s over " << format_double(report.wall_seconds, 3)
              << " s\n";
    std::cout << "latency p50 " << report.latency.quantile(0.5) << " ns, p99 "
              << report.latency.quantile(0.99) << " ns, p99.9 "
              << report.latency.quantile(0.999) << " ns, max "
              << report.latency.max() << " ns\n";
    const auto split = [](const char* kind, const latency_histogram& h) {
      std::cout << "  " << kind << " p50 " << h.quantile(0.5) << " ns, p99 "
                << h.quantile(0.99) << " ns, p99.9 " << h.quantile(0.999)
                << " ns (" << h.count() << " samples)\n";
    };
    split("store   ", report.store_latency);
    split("readback", report.readback_latency);
    split("quality ", report.quality_latency);

    const std::string out_path = parsed->value_or("--out");
    const std::string counters_path = parsed->value_or("--counters-out");
    if (!out_path.empty()) write_json(out_path, report.to_json(), "report");
    if (!counters_path.empty()) {
      write_json(counters_path, report.counters.to_json(), "counters");
    }
    return 0;
  } catch (const spec_error& error) {
    std::cerr << "urmem-serve: " << error.what() << "\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "urmem-serve: error: " << error.what() << "\n";
    return 1;
  }
}
