// Micro-benchmarks of the protection codecs — the software cost of each
// scheme's encode/decode path, which dominates the Monte-Carlo
// experiment runtimes once the fault planes are compiled (PR 2).
//
// Before timing anything the bench proves the compiled codec layer
// correct (exits nonzero on any mismatch):
//   1. hamming_secded LUT encode/decode == the per-bit reference walk
//      (exhaustive data for narrow widths, randomized for wide; all
//      single- and double-bit error patterns for decode);
//   2. block encode/decode == the per-word reference oracle,
//      bit-identical in data AND decode statuses, for every scheme type
//      (none, SECDED, Hsiao, BCH, P-ECC, bit-shuffling) across tile
//      sizes including 1, a non-multiple-of-tile remainder, and the
//      full array.
// Then it times the W=32 SECDED/Hsiao/BCH tile paths and reports
// speedup_{encode,decode}_block_vs_scalar — block-codec tile loop vs
// the per-word virtual reference codecs — which the CI perf job gates
// at >= 3x. Emits BENCH_micro_codec.json (see README
// "Bench telemetry").
#include <cstdint>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "urmem/common/rng.hpp"
#include "urmem/ecc/bch.hpp"
#include "urmem/ecc/hamming_secded.hpp"
#include "urmem/ecc/hsiao.hpp"
#include "urmem/ecc/priority_ecc.hpp"
#include "urmem/memory/fault_sampler.hpp"
#include "urmem/scheme/protection_scheme.hpp"
#include "urmem/shuffle/bit_shuffler.hpp"

namespace {

using namespace urmem;

constexpr std::uint64_t kOpsPerRep = 1 << 14;

std::vector<word_t> random_words(std::uint64_t seed, std::size_t count,
                                 unsigned width) {
  rng gen(seed);
  std::vector<word_t> out(count);
  for (auto& w : out) w = gen() & word_mask(width);
  return out;
}

// LUT-compiled codec == per-bit reference, over data words and
// corrupted codewords (clean, every single flip, every double flip).
// hamming_secded, hsiao_code and bch_code share this surface, so one
// template verifies all three families.
template <class Code>
bool verify_codec_lut(const char* label, const Code& code,
                      std::uint64_t wide_samples, std::uint64_t seed) {
  const unsigned data_bits = code.data_bits();
  const bool exhaustive = data_bits <= 16;
  const std::uint64_t samples =
      exhaustive ? (word_t{1} << data_bits) : wide_samples;
  rng gen(seed);
  for (std::uint64_t i = 0; i < samples; ++i) {
    const word_t data =
        exhaustive ? i : (gen() & word_mask(data_bits));
    const word_t cw = code.encode(data);
    if (cw != code.encode_reference(data)) {
      std::cerr << "LUT/REFERENCE ENCODE MISMATCH " << label
                << " d=" << data_bits << " data=" << data << "\n";
      return false;
    }
    if (code.extract_data(cw) != data) {
      std::cerr << "EXTRACT MISMATCH " << label << " d=" << data_bits
                << " data=" << data << "\n";
      return false;
    }
    // Full error-pattern sweep on a thinned subset (every word for the
    // byte-wide code, every 64th sample otherwise) keeps the sweep
    // O(n^2) only where it is cheap.
    const bool sweep = exhaustive ? (data_bits <= 8 || i % 64 == 0)
                                  : i % 256 == 0;
    const unsigned n = code.codeword_bits();
    for (unsigned a = 0; sweep && a < n; ++a) {
      const word_t one = flip_bit(cw, a);
      const ecc_decode_result fast1 = code.decode(one);
      const ecc_decode_result ref1 = code.decode_reference(one);
      if (fast1.data != ref1.data || fast1.status != ref1.status) {
        std::cerr << "DECODE MISMATCH (1-bit) " << label
                  << " d=" << data_bits << " data=" << data << " a=" << a
                  << "\n";
        return false;
      }
      for (unsigned b = a + 1; b < n; ++b) {
        const word_t two = flip_bit(one, b);
        const ecc_decode_result fast2 = code.decode(two);
        const ecc_decode_result ref2 = code.decode_reference(two);
        if (fast2.data != ref2.data || fast2.status != ref2.status) {
          std::cerr << "DECODE MISMATCH (2-bit) " << label
                    << " d=" << data_bits << " data=" << data << " a=" << a
                    << " b=" << b << "\n";
          return false;
        }
      }
    }
    // Arbitrary (multi-bit) corruption: the two decoders must still
    // agree word for word.
    const word_t garbage = gen() & word_mask(n);
    const ecc_decode_result fast = code.decode(garbage);
    const ecc_decode_result ref = code.decode_reference(garbage);
    if (fast.data != ref.data || fast.status != ref.status) {
      std::cerr << "DECODE MISMATCH (garbage) " << label
                << " d=" << data_bits << "\n";
      return false;
    }
  }
  return true;
}

// Block path == per-word reference oracle (data and statuses) for one
// scheme instance across the required tile sizes.
bool verify_block_equals_reference(protection_scheme& scheme,
                                   std::uint32_t rows, std::uint64_t seed) {
  // Configure from a random fault map over the storage geometry, the
  // way BIST would — exercises the shuffle LUT's nonzero entries.
  rng gen(seed);
  const array_geometry geometry{rows, scheme.storage_bits()};
  scheme.configure(sample_fault_map_exact(geometry, rows / 8 + 1, gen));

  const std::vector<word_t> data =
      random_words(seed + 1, rows, scheme.data_bits());
  const std::vector<std::size_t> tiles = {1, 7, rows / 2 + 3, rows};
  for (const std::size_t tile : tiles) {
    std::uint32_t first = 0;
    while (first < rows) {
      const std::size_t count = std::min<std::size_t>(tile, rows - first);
      const std::span<const word_t> in(data.data() + first, count);
      std::vector<word_t> stored(count);
      scheme.encode_block(first, in, stored);
      block_decode_stats reference_stats;
      std::vector<read_result> reference(count);
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint32_t row = first + static_cast<std::uint32_t>(i);
        if (stored[i] != scheme.encode_reference(row, in[i])) {
          std::cerr << "BLOCK/REFERENCE ENCODE MISMATCH scheme="
                    << scheme.name() << " row=" << row << "\n";
          return false;
        }
        // Corrupt some words so decode exercises all status paths.
        if (i % 3 == 0) stored[i] = flip_bit(stored[i], row % scheme.storage_bits());
        if (i % 7 == 0) stored[i] = flip_bit(stored[i], (row + 5) % scheme.storage_bits());
        reference[i] = scheme.decode_reference(row, stored[i]);
        reference_stats.count(reference[i].status);
      }
      std::vector<word_t> decoded(count);
      const block_decode_stats stats =
          scheme.decode_block(first, stored, decoded);
      if (stats.corrected != reference_stats.corrected ||
          stats.uncorrectable != reference_stats.uncorrectable) {
        std::cerr << "BLOCK/REFERENCE DECODE STATS MISMATCH scheme="
                  << scheme.name() << " first=" << first << "\n";
        return false;
      }
      for (std::size_t i = 0; i < count; ++i) {
        if (decoded[i] != reference[i].data) {
          std::cerr << "BLOCK/REFERENCE DECODE MISMATCH scheme="
                    << scheme.name() << " row=" << first + i << "\n";
          return false;
        }
      }
      first += static_cast<std::uint32_t>(count);
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::flags args(
      argc, argv,
      {{"seed", "data stream seed (default 1)"},
       {"rows", "tile rows for the block paths (default 4096)"},
       {"min-time-ms", "min wall time per timed bench (default 200)"}});
  const std::uint64_t seed = args.u64("seed", 1);
  const std::uint64_t rows_flag = args.u64("rows", 4096);
  args.require(rows_flag >= 1 && rows_flag <= array_geometry::max_rows,
               "rows",
               "in [1, " + std::to_string(array_geometry::max_rows) + "]");
  const auto rows = static_cast<std::uint32_t>(rows_flag);
  const double min_ms = args.real("min-time-ms", 200.0);

  bench::banner("micro_codec — protection codec throughput",
                "encode/decode cost behind the Fig. 5 / Fig. 7 campaigns");

  // ---------------------------------------------------- self-verification
  for (const unsigned data_bits : {8u, 16u, 32u, 57u}) {
    if (!verify_codec_lut("secded", hamming_secded(data_bits), 20000,
                          seed + data_bits)) {
      return 1;
    }
    if (!verify_codec_lut("hsiao", hsiao_code(data_bits), 20000,
                          seed + data_bits + 1)) {
      return 1;
    }
  }
  // BCH reference decode is a brute-force pattern search, so the wide
  // code gets a reduced sample budget.
  for (const unsigned t : {1u, 2u}) {
    if (!verify_codec_lut("bch", bch_code(8, t), 0, seed + t)) return 1;
    if (!verify_codec_lut("bch", bch_code(32, t), 4000, seed + 10 + t)) {
      return 1;
    }
  }
  {
    const std::uint32_t verify_rows = 512;
    none_scheme none(32);
    secded_scheme secded(32);
    hsiao_scheme hsiao(32);
    bch_scheme bch1(32, 1);
    bch_scheme bch2(32, 2);
    pecc_scheme pecc(32, 16);
    shuffle_protection shuffle(verify_rows, 32, 3);
    protection_scheme* schemes[] = {&none,  &secded, &hsiao, &bch1,
                                    &bch2,  &pecc,   &shuffle};
    for (protection_scheme* scheme : schemes) {
      if (!verify_block_equals_reference(*scheme, verify_rows, seed + 77)) {
        return 1;
      }
    }
  }
  std::cout << "compiled codecs bit-identical to the per-bit reference, "
               "block == reference across all schemes: ok\n\n";

  std::vector<bench::micro_result> results;

  // ------------------------------------------- scalar codec micro timing
  for (const unsigned data_bits : {16u, 32u, 57u}) {
    const hamming_secded code(data_bits);
    word_t data = rng(seed)() & word_mask(code.data_bits());
    results.push_back(bench::run_micro(
        "secded" + std::to_string(data_bits) + " encode", kOpsPerRep,
        [&] {
          word_t sum = 0;
          for (std::uint64_t i = 0; i < kOpsPerRep; ++i) {
            sum += code.encode(data);
            data = (data * 0x9e3779b97f4a7c15ULL + 1) & word_mask(code.data_bits());
          }
          bench::keep(sum);
        },
        min_ms));
  }

  {
    const hamming_secded code(32);
    const word_t cw = code.encode(rng(seed + 1)() & word_mask(32));
    results.push_back(bench::run_micro(
        "secded32 decode clean", kOpsPerRep,
        [&] {
          word_t sum = 0;
          for (std::uint64_t i = 0; i < kOpsPerRep; ++i) {
            sum += code.decode(cw).data;
          }
          bench::keep(sum);
        },
        min_ms));
    results.push_back(bench::run_micro(
        "secded32 decode correcting", kOpsPerRep,
        [&] {
          word_t sum = 0;
          unsigned pos = 0;
          for (std::uint64_t i = 0; i < kOpsPerRep; ++i) {
            sum += code.decode(flip_bit(cw, pos)).data;
            pos = (pos + 1) % code.codeword_bits();
          }
          bench::keep(sum);
        },
        min_ms));
  }

  {
    const priority_ecc codec;
    word_t data = rng(seed + 2)() & word_mask(32);
    results.push_back(bench::run_micro(
        "pecc roundtrip", kOpsPerRep,
        [&] {
          word_t sum = 0;
          for (std::uint64_t i = 0; i < kOpsPerRep; ++i) {
            sum += codec.decode(codec.encode(data)).data;
            data = (data * 0x9e3779b97f4a7c15ULL + 1) & word_mask(32);
          }
          bench::keep(sum);
        },
        min_ms));
  }

  for (const unsigned n_fm : {1u, 3u, 5u}) {
    const bit_shuffler shuffler(32, n_fm);
    word_t data = rng(seed + 3)() & word_mask(32);
    results.push_back(bench::run_micro(
        "shuffle nFM=" + std::to_string(n_fm) + " roundtrip", kOpsPerRep,
        [&] {
          word_t sum = 0;
          unsigned xfm = 0;
          for (std::uint64_t i = 0; i < kOpsPerRep; ++i) {
            sum += shuffler.restore(shuffler.apply(data, xfm), xfm);
            xfm = (xfm + 1) % shuffler.segment_count();
            data = (data * 0x9e3779b97f4a7c15ULL + 1) & word_mask(32);
          }
          bench::keep(sum);
        },
        min_ms));
  }

  // ---------------------- tile paths: block codec vs per-word scalar path
  // The gated comparisons. "scalar" is the per-word virtual reference
  // walk (what write_block/read_block run under URMEM_FAULT_PATH=
  // reference); "block" is one encode_block/decode_block call over the
  // whole tile. SECDED, Hsiao and BCH t=2 are gated.
  struct tile_speedups {
    double encode = 0.0;
    double decode = 0.0;
  };
  const auto time_tile_paths = [&](const std::string& label,
                                   const protection_scheme& tile_vscheme) {
    const std::vector<word_t> tile_data = random_words(seed + 4, rows, 32);
    std::vector<word_t> tile_stored(rows);
    tile_vscheme.encode_block(0, tile_data, tile_stored);
    // Sprinkle correctable errors so decode timing covers the
    // correction path at a realistic (sparse) rate.
    for (std::uint32_t row = 0; row < rows; row += 37) {
      tile_stored[row] =
          flip_bit(tile_stored[row], row % tile_vscheme.storage_bits());
    }
    std::vector<word_t> tile_out(rows);

    results.push_back(bench::run_micro(
        label + " encode scalar/word", rows,
        [&] {
          for (std::uint32_t row = 0; row < rows; ++row) {
            tile_out[row] = tile_vscheme.encode_reference(row, tile_data[row]);
          }
          bench::keep(tile_out[rows - 1]);
        },
        min_ms));
    const std::size_t encode_scalar_index = results.size() - 1;
    results.push_back(bench::run_micro(
        label + " encode block", rows,
        [&] {
          tile_vscheme.encode_block(0, tile_data, tile_out);
          bench::keep(tile_out[rows - 1]);
        },
        min_ms));
    const std::size_t encode_block_index = results.size() - 1;
    results.push_back(bench::run_micro(
        label + " decode scalar/word", rows,
        [&] {
          std::uint64_t uncorrectable = 0;
          for (std::uint32_t row = 0; row < rows; ++row) {
            const read_result r =
                tile_vscheme.decode_reference(row, tile_stored[row]);
            tile_out[row] = r.data;
            if (r.status == ecc_status::detected_uncorrectable) ++uncorrectable;
          }
          bench::keep(tile_out[rows - 1] + uncorrectable);
        },
        min_ms));
    const std::size_t decode_scalar_index = results.size() - 1;
    results.push_back(bench::run_micro(
        label + " decode block", rows,
        [&] {
          const block_decode_stats stats =
              tile_vscheme.decode_block(0, tile_stored, tile_out);
          bench::keep(tile_out[rows - 1] + stats.uncorrectable);
        },
        min_ms));
    const std::size_t decode_block_index = results.size() - 1;

    tile_speedups speedups;
    speedups.encode = results[encode_scalar_index].ns_per_item /
                      results[encode_block_index].ns_per_item;
    speedups.decode = results[decode_scalar_index].ns_per_item /
                      results[decode_block_index].ns_per_item;
    return speedups;
  };

  const tile_speedups secded_speedups =
      time_tile_paths("secded32", secded_scheme(32));
  const tile_speedups hsiao_speedups =
      time_tile_paths("hsiao32", hsiao_scheme(32));
  const tile_speedups bch_speedups =
      time_tile_paths("bch32t2", bch_scheme(32, 2));

  bench::print_micro_table(results);

  const double speedup_encode = secded_speedups.encode;
  const double speedup_decode = secded_speedups.decode;
  std::cout << "\nblock-codec speedup vs per-word scalar (W=32 SECDED): encode "
            << speedup_encode << "x, decode " << speedup_decode << "x\n";
  std::cout << "block-codec speedup vs per-word scalar (W=32 Hsiao): encode "
            << hsiao_speedups.encode << "x, decode " << hsiao_speedups.decode
            << "x\n";
  std::cout << "block-codec speedup vs per-word scalar (W=32 BCH t=2): encode "
            << bch_speedups.encode << "x, decode " << bch_speedups.decode
            << "x\n";

  bench::json_object payload = bench::bench_envelope("micro_codec");
  bench::json_object config;
  config.add("seed", seed)
      .add("rows", std::uint64_t{rows})
      .add("min_time_ms", min_ms)
      .add("ops_per_rep", kOpsPerRep);
  payload.add_raw("config", config.str());
  std::vector<std::string> entries;
  entries.reserve(results.size());
  for (const auto& r : results) entries.push_back(bench::micro_json(r));
  payload.add_raw("results", bench::json_array(entries));
  payload.add("speedup_encode_block_vs_scalar", speedup_encode);
  payload.add("speedup_decode_block_vs_scalar", speedup_decode);
  payload.add("speedup_encode_block_vs_scalar_hsiao", hsiao_speedups.encode);
  payload.add("speedup_decode_block_vs_scalar_hsiao", hsiao_speedups.decode);
  payload.add("speedup_encode_block_vs_scalar_bch", bch_speedups.encode);
  payload.add("speedup_decode_block_vs_scalar_bch", bch_speedups.decode);
  return bench::write_bench_json("micro_codec", payload);
}
