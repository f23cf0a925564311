// Micro-benchmarks of the memory substrate hot loop: the fault map's
// plane-mask fast path (per-word and batched row ops) measured against
// the per-cell reference oracle on a dense fault map, plus fault
// sampling and the Eq. 6 MSE kernel Fig. 5's Monte Carlo leans on.
//
// Before timing anything the bench proves the two paths bit-identical
// on randomized write/read sequences (exits nonzero on mismatch), so
// the reported speedup is between equivalent computations. Emits
// BENCH_micro_memory.json (see README "Bench telemetry"); CI fails when
// speedup_read_vs_oracle or speedup_write_vs_oracle drops below 1.
//
// Flags:
//   --rows=N         array rows            (default 4096, the 16 KB array)
//   --width=W        word width in bits    (default 32)
//   --pcell=P        cell failure prob     (default 5e-2 — dense on purpose)
//   --seed=S         fault map + data seed (default 1)
//   --min-time-ms=T  min wall time per timed bench (default 200)
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "urmem/bist/bist_engine.hpp"
#include "urmem/common/binomial.hpp"
#include "urmem/common/rng.hpp"
#include "urmem/memory/cell_failure_model.hpp"
#include "urmem/memory/fault_sampler.hpp"
#include "urmem/memory/sram_array.hpp"
#include "urmem/scheme/protection_scheme.hpp"
#include "urmem/yield/mse_distribution.hpp"

namespace {

using namespace urmem;

std::vector<word_t> random_words(std::uint64_t seed, std::size_t count,
                                 unsigned width) {
  rng gen(seed);
  std::vector<word_t> out(count);
  for (auto& w : out) w = gen() & word_mask(width);
  return out;
}

// Proves compiled == reference over a write/read sequence that exercises
// every fault kind (the map uses the mixed polarity, which includes both
// transition-fail kinds). Returns false on any mismatch.
bool verify_paths_identical(const fault_map& map, std::uint64_t seed) {
  sram_array compiled(map);
  compiled.set_fault_path(fault_path::compiled);
  sram_array reference(map);
  reference.set_fault_path(fault_path::reference);

  const std::uint32_t rows = map.geometry().rows;
  const unsigned width = map.geometry().width;
  for (int pass = 0; pass < 3; ++pass) {
    const auto pattern =
        random_words(seed + static_cast<std::uint64_t>(pass), rows, width);
    compiled.write_rows(0, pattern);
    for (std::uint32_t row = 0; row < rows; ++row) {
      reference.write(row, pattern[row]);
    }
    std::vector<word_t> batched(rows);
    compiled.read_rows(0, batched);
    for (std::uint32_t row = 0; row < rows; ++row) {
      const word_t oracle = reference.read(row);
      if (batched[row] != oracle || compiled.read(row) != oracle ||
          compiled.read_ideal(row) != reference.read_ideal(row)) {
        std::cerr << "FAST/ORACLE MISMATCH at pass " << pass << " row " << row
                  << ": batched=" << batched[row] << " oracle=" << oracle
                  << "\n";
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::arg_parser args(argc, argv);
  bench::banner("micro_memory — fault-map fast path vs per-cell oracle",
                "hot loop of the Fig. 5 / Fig. 7 Monte-Carlo campaigns");

  const auto rows = static_cast<std::uint32_t>(args.get_u64("rows", 4096));
  const auto width = static_cast<unsigned>(args.get_u64("width", 32));
  const double pcell = args.get_double("pcell", 5e-2);
  const std::uint64_t seed = args.get_u64("seed", 1);
  const double min_ms = args.get_double("min-time-ms", 200.0);

  const array_geometry geometry{rows, width};
  rng gen(seed);
  const fault_map map = sample_fault_map_binomial(
      geometry, binomial_distribution(geometry.cells(), pcell), gen,
      fault_polarity::mixed);
  std::cout << "geometry " << rows << " x " << width << ", Pcell = " << pcell
            << ", injected faults = " << map.fault_count() << " ("
            << map.faulty_rows().size() << " faulty rows)\n\n";

  if (!verify_paths_identical(map, seed + 101)) return 1;
  std::cout << "paths bit-identical over randomized write/read sequences: ok\n\n";

  sram_array fast(map);
  fast.set_fault_path(fault_path::compiled);
  sram_array oracle(map);
  oracle.set_fault_path(fault_path::reference);
  const auto pattern = random_words(seed + 7, rows, width);
  fast.write_rows(0, pattern);
  oracle.write_rows(0, pattern);

  std::vector<word_t> buffer(rows);
  std::vector<bench::micro_result> results;

  results.push_back(bench::run_micro(
      "read/word oracle", rows,
      [&] {
        word_t sum = 0;
        for (std::uint32_t row = 0; row < rows; ++row) sum += oracle.read(row);
        bench::keep(sum);
      },
      min_ms));
  results.push_back(bench::run_micro(
      "read/word compiled", rows,
      [&] {
        word_t sum = 0;
        for (std::uint32_t row = 0; row < rows; ++row) sum += fast.read(row);
        bench::keep(sum);
      },
      min_ms));
  results.push_back(bench::run_micro(
      "read/rows compiled", rows,
      [&] {
        fast.read_rows(0, buffer);
        bench::keep(buffer[rows - 1]);
      },
      min_ms));
  results.push_back(bench::run_micro(
      "write/word oracle", rows,
      [&] {
        for (std::uint32_t row = 0; row < rows; ++row) {
          oracle.write(row, pattern[row]);
        }
      },
      min_ms));
  results.push_back(bench::run_micro(
      "write/rows compiled", rows,
      [&] { fast.write_rows(0, pattern); }, min_ms));
  results.push_back(bench::run_micro(
      "sample_fault_map n=150", 150,
      [&] { bench::keep(sample_fault_map_exact(geometry, 150, gen).fault_count()); },
      min_ms));
  {
    const auto model = cell_failure_model::default_28nm();
    const array_geometry vg{512, 32};
    const double vdd = model.vdd_for_pcell(1e-3);
    results.push_back(bench::run_micro(
        "faults_at_voltage 512x32", 1,
        [&] { bench::keep(model.faults_at_voltage(vg, vdd).fault_count()); },
        min_ms));
  }
  {
    rng bist_gen(3);
    sram_array bist_array(
        sample_fault_map_exact(array_geometry{1024, 32}, 20, bist_gen));
    const bist_engine engine(march_c_minus());
    results.push_back(bench::run_micro(
        "bist march_c- 1024x32", 1024,
        [&] { bench::keep(engine.run(bist_array).pass ? 1 : 0); }, min_ms));
  }
  {
    const auto scheme = make_scheme_shuffle(rows, 32, 2);
    rng mse_gen(seed + 13);
    const array_geometry mse_geometry{rows, scheme->storage_bits()};
    results.push_back(bench::run_micro(
        "sample_mse nFM=2 n=20", 1,
        [&] {
          bench::keep(static_cast<std::uint64_t>(
              sample_mse(*scheme, mse_geometry, 20, mse_gen)));
        },
        min_ms));
  }

  bench::print_micro_table(results);

  const double speedup_read = results[0].ns_per_item / results[2].ns_per_item;
  const double speedup_write = results[3].ns_per_item / results[4].ns_per_item;
  std::cout << "\nfast-path speedup vs per-cell oracle: read "
            << speedup_read << "x, write " << speedup_write << "x\n";

  bench::json_object payload = bench::bench_envelope("micro_memory");
  bench::json_object config;
  config.add("rows", std::uint64_t{rows})
      .add("width", std::uint64_t{width})
      .add("pcell", pcell)
      .add("seed", seed)
      .add("min_time_ms", min_ms)
      .add("injected_faults", map.fault_count());
  payload.add_raw("config", config.str());
  std::vector<std::string> entries;
  entries.reserve(results.size());
  for (const auto& r : results) entries.push_back(bench::micro_json(r));
  payload.add_raw("results", bench::json_array(entries));
  payload.add("speedup_read_vs_oracle", speedup_read);
  payload.add("speedup_write_vs_oracle", speedup_write);
  bench::write_bench_json("micro_memory", payload);
  return 0;
}
