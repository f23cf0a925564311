// Property tests for the compiled block-codec layer: one
// encode_block/decode_block call must be bit-identical — data words and
// decode statuses — to the one-element block calls behind scalar
// encode/decode and to the per-bit reference oracle, for every
// protection scheme type, across word widths, random data, random BIST
// fault maps, and tile sizes including 1, a non-multiple-of-the-array
// remainder, and the full array. Also proves protected_memory's
// compiled and reference paths end-to-end equal through a faulty array,
// and that every protected_memory access takes the selected path.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "urmem/common/rng.hpp"
#include "urmem/memory/fault_sampler.hpp"
#include "urmem/scheme/protected_memory.hpp"
#include "urmem/scheme/protection_scheme.hpp"

namespace urmem {
namespace {

constexpr std::uint32_t kRows = 256;

std::vector<word_t> random_words(std::uint64_t seed, std::size_t count,
                                 unsigned width) {
  rng gen(seed);
  std::vector<word_t> out(count);
  for (auto& w : out) w = gen() & word_mask(width);
  return out;
}

/// A scheme under test plus the seed deriving its fault map and data.
struct scheme_case {
  std::string label;
  std::function<std::unique_ptr<protection_scheme>()> make;
  std::uint64_t seed;
};

std::vector<scheme_case> all_scheme_cases() {
  std::vector<scheme_case> cases;
  // Unprotected and SECDED at every required width, including the
  // 57-data-bit code that fills the 64-bit carrier.
  for (const unsigned width : {8u, 16u, 32u, 57u}) {
    cases.push_back({"none/" + std::to_string(width),
                     [width] { return make_scheme_none(width); }, width});
    cases.push_back({"secded/" + std::to_string(width),
                     [width] { return make_scheme_secded(width); },
                     width + 100});
    cases.push_back({"hsiao/" + std::to_string(width),
                     [width] { return make_scheme_hsiao(width); },
                     width + 400});
  }
  // Multi-bit BCH at both correction strengths.
  for (const unsigned width : {8u, 16u, 32u}) {
    for (const unsigned t : {1u, 2u}) {
      cases.push_back({"bch/" + std::to_string(width) + "/t=" +
                           std::to_string(t),
                       [width, t] { return make_scheme_bch(width, t); },
                       width + 500 + t});
    }
  }
  // P-ECC at the paper's configuration and narrower variants.
  for (const unsigned width : {8u, 16u, 32u}) {
    cases.push_back({"pecc/" + std::to_string(width),
                     [width] { return make_scheme_pecc(width, width / 2); },
                     width + 200});
  }
  // Bit-shuffling (power-of-two widths only) across nFM values.
  for (const unsigned width : {8u, 16u, 32u}) {
    for (unsigned n_fm = 1; n_fm <= log2_exact(width) && n_fm <= 5; n_fm += 2) {
      cases.push_back(
          {"shuffle/" + std::to_string(width) + "/nFM=" + std::to_string(n_fm),
           [width, n_fm] { return make_scheme_shuffle(kRows, width, n_fm); },
           width + 300 + n_fm});
    }
  }
  return cases;
}

/// Configures `scheme` from a random fault map (so shuffle LUT entries
/// are nonzero) and returns corrupted stored words covering clean,
/// single-error and multi-error rows.
std::vector<word_t> make_stored_words(protection_scheme& scheme,
                                      std::span<const word_t> data,
                                      std::uint64_t seed) {
  rng gen(seed);
  const array_geometry geometry{kRows, scheme.storage_bits()};
  scheme.configure(sample_fault_map_exact(geometry, kRows / 4 + 1, gen));

  std::vector<word_t> stored(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto row = static_cast<std::uint32_t>(i);
    stored[i] = scheme.encode(row, data[i]);
    if (i % 3 == 0) {
      stored[i] = flip_bit(stored[i], row % scheme.storage_bits());
    }
    if (i % 5 == 0) {
      stored[i] = flip_bit(stored[i], (row + 11) % scheme.storage_bits());
    }
  }
  return stored;
}

TEST(BlockCodecTest, EncodeBlockMatchesScalarForAllSchemesAndTiles) {
  for (const scheme_case& c : all_scheme_cases()) {
    const std::unique_ptr<protection_scheme> scheme = c.make();
    rng gen(c.seed);
    const array_geometry geometry{kRows, scheme->storage_bits()};
    scheme->configure(sample_fault_map_exact(geometry, kRows / 4 + 1, gen));
    const std::vector<word_t> data =
        random_words(c.seed + 1, kRows, scheme->data_bits());

    for (const std::size_t tile : {std::size_t{1}, std::size_t{13},
                                   std::size_t{kRows}}) {
      std::uint32_t first = 0;
      while (first < kRows) {
        const std::size_t count = std::min<std::size_t>(tile, kRows - first);
        std::vector<word_t> block(count);
        scheme->encode_block(first, {data.data() + first, count}, block);
        for (std::size_t i = 0; i < count; ++i) {
          const auto row = first + static_cast<std::uint32_t>(i);
          ASSERT_EQ(block[i], scheme->encode(row, data[row]))
              << c.label << " tile=" << tile << " row=" << row;
          ASSERT_EQ(block[i], scheme->encode_reference(row, data[row]))
              << c.label << " tile=" << tile << " row=" << row;
        }
        first += static_cast<std::uint32_t>(count);
      }
    }
  }
}

TEST(BlockCodecTest, DecodeBlockMatchesScalarForAllSchemesAndTiles) {
  for (const scheme_case& c : all_scheme_cases()) {
    const std::unique_ptr<protection_scheme> scheme = c.make();
    const std::vector<word_t> data =
        random_words(c.seed + 2, kRows, scheme->data_bits());
    const std::vector<word_t> stored =
        make_stored_words(*scheme, data, c.seed + 3);

    for (const std::size_t tile : {std::size_t{1}, std::size_t{13},
                                   std::size_t{kRows}}) {
      std::uint32_t first = 0;
      while (first < kRows) {
        const std::size_t count = std::min<std::size_t>(tile, kRows - first);
        std::vector<word_t> block(count);
        const block_decode_stats stats =
            scheme->decode_block(first, {stored.data() + first, count}, block);
        block_decode_stats expected;
        for (std::size_t i = 0; i < count; ++i) {
          const auto row = first + static_cast<std::uint32_t>(i);
          const read_result scalar = scheme->decode(row, stored[row]);
          const read_result reference = scheme->decode_reference(row, stored[row]);
          ASSERT_EQ(block[i], scalar.data)
              << c.label << " tile=" << tile << " row=" << row;
          ASSERT_EQ(scalar.data, reference.data) << c.label << " row=" << row;
          ASSERT_EQ(scalar.status, reference.status) << c.label << " row=" << row;
          expected.count(scalar.status);
        }
        EXPECT_EQ(stats.corrected, expected.corrected)
            << c.label << " tile=" << tile << " first=" << first;
        EXPECT_EQ(stats.uncorrectable, expected.uncorrectable)
            << c.label << " tile=" << tile << " first=" << first;
        first += static_cast<std::uint32_t>(count);
      }
    }
  }
}

TEST(BlockCodecTest, DecodeBlockWorksInPlace) {
  for (const scheme_case& c : all_scheme_cases()) {
    const std::unique_ptr<protection_scheme> scheme = c.make();
    const std::vector<word_t> data =
        random_words(c.seed + 4, kRows, scheme->data_bits());
    const std::vector<word_t> stored =
        make_stored_words(*scheme, data, c.seed + 5);

    std::vector<word_t> out_of_place(kRows);
    scheme->decode_block(0, stored, out_of_place);
    std::vector<word_t> in_place = stored;
    scheme->decode_block(0, in_place, in_place);
    EXPECT_EQ(in_place, out_of_place) << c.label;

    std::vector<word_t> encoded(kRows);
    scheme->encode_block(0, data, encoded);
    std::vector<word_t> encoded_in_place = data;
    scheme->encode_block(0, encoded_in_place, encoded_in_place);
    EXPECT_EQ(encoded_in_place, encoded) << c.label;
  }
}

TEST(BlockCodecTest, RejectsMismatchedSpans) {
  const std::unique_ptr<protection_scheme> scheme = make_scheme_secded(32);
  const std::vector<word_t> data(8, 0);
  std::vector<word_t> out(7);
  EXPECT_THROW(scheme->encode_block(0, data, out), std::invalid_argument);
  EXPECT_THROW(scheme->decode_block(0, data, out), std::invalid_argument);
}

/// End to end: protected_memory on a faulty array must return identical
/// restored words and stats on the compiled block path and the per-word
/// reference oracle path.
TEST(BlockCodecTest, ProtectedMemoryBlockPathMatchesReferencePath) {
  struct factory_case {
    std::string label;
    std::function<std::unique_ptr<protection_scheme>()> make;
  };
  const std::vector<factory_case> factories = {
      {"none", [] { return make_scheme_none(32); }},
      {"secded", [] { return make_scheme_secded(32); }},
      {"hsiao", [] { return make_scheme_hsiao(32); }},
      {"bch:t=2", [] { return make_scheme_bch(32, 2); }},
      {"pecc", [] { return make_scheme_pecc(32, 16); }},
      {"shuffle", [] { return make_scheme_shuffle(kRows, 32, 3); }},
  };
  for (const factory_case& c : factories) {
    for (int trial = 0; trial < 3; ++trial) {
      const std::uint64_t seed = 900 + static_cast<std::uint64_t>(trial) * 17;
      protected_memory compiled(kRows, c.make());
      protected_memory reference(kRows, c.make());
      compiled.set_fault_path(fault_path::compiled);
      reference.set_fault_path(fault_path::reference);

      rng map_gen(seed);
      const fault_map faults = sample_fault_map_exact(
          compiled.storage_geometry(), 40, map_gen, fault_polarity::mixed);
      compiled.set_fault_map(faults);
      reference.set_fault_map(faults);

      const std::vector<word_t> data = random_words(seed + 1, kRows, 32);
      compiled.write_block(0, data);
      std::vector<word_t> from_compiled(kRows);
      protected_memory::block_stats compiled_stats;
      compiled.read_block(0, from_compiled, &compiled_stats);

      reference.write_block(0, data);
      std::vector<word_t> from_reference(kRows);
      protected_memory::block_stats reference_stats;
      reference.read_block(0, from_reference, &reference_stats);

      ASSERT_EQ(from_compiled, from_reference) << c.label << " trial=" << trial;
      EXPECT_EQ(compiled_stats.corrected, reference_stats.corrected) << c.label;
      EXPECT_EQ(compiled_stats.uncorrectable, reference_stats.uncorrectable)
          << c.label;

      // The per-word read path must agree with both block paths.
      for (std::uint32_t row = 0; row < kRows; ++row) {
        ASSERT_EQ(compiled.read(row).data, from_compiled[row])
            << c.label << " row=" << row;
      }
    }
  }
}

/// Calls per codec path, shared between a counting_scheme and its test.
struct codec_calls {
  int block = 0;      ///< encode_block + decode_block
  int reference = 0;  ///< encode_reference + decode_reference
};

/// Delegating wrapper that counts which codec path each access takes.
class counting_scheme final : public protection_scheme {
 public:
  counting_scheme(std::unique_ptr<protection_scheme> inner, codec_calls& calls)
      : protection_scheme(inner->shape()),
        inner_(std::move(inner)),
        calls_(calls) {}

  void configure(const fault_map& faults) override {
    inner_->configure(faults);
  }
  void encode_block(std::uint32_t first_row, std::span<const word_t> data,
                    std::span<word_t> out) const override {
    ++calls_.block;
    inner_->encode_block(first_row, data, out);
  }
  block_decode_stats decode_block(std::uint32_t first_row,
                                  std::span<const word_t> stored,
                                  std::span<word_t> out) const override {
    ++calls_.block;
    return inner_->decode_block(first_row, stored, out);
  }
  [[nodiscard]] word_t encode_reference(std::uint32_t row,
                                        word_t data) const override {
    ++calls_.reference;
    return inner_->encode_reference(row, data);
  }
  [[nodiscard]] read_result decode_reference(std::uint32_t row,
                                             word_t stored) const override {
    ++calls_.reference;
    return inner_->decode_reference(row, stored);
  }
  void residual_fault_bits(std::uint32_t row,
                           std::span<const std::uint32_t> fault_cols,
                           std::vector<std::uint32_t>& out) const override {
    inner_->residual_fault_bits(row, fault_cols, out);
  }

 private:
  std::unique_ptr<protection_scheme> inner_;
  codec_calls& calls_;
};

/// Every protected_memory access — scalar store and readback, block
/// store and readback, spare retirement and the raw-retry decode —
/// runs the block codecs on the compiled path and only the reference
/// codecs on the reference path.
TEST(BlockCodecTest, ProtectedMemoryAccessesTakeTheSelectedCodecPath) {
  constexpr std::uint32_t rows = 16;
  for (const fault_path path : {fault_path::compiled, fault_path::reference}) {
    const bool oracle = path == fault_path::reference;
    codec_calls calls;
    protected_memory memory(
        rows, std::make_unique<counting_scheme>(make_scheme_secded(32), calls),
        /*spare_rows=*/2);
    memory.set_fault_path(path);
    memory.set_fault_map(fault_map(memory.storage_geometry()));
    const std::vector<word_t> data = random_words(77, rows, 32);

    const auto expect_calls = [&](const char* access, int block,
                                  int reference) {
      EXPECT_EQ(calls.block, oracle ? 0 : block) << access;
      EXPECT_EQ(calls.reference, oracle ? reference : 0) << access;
      calls = {};
    };
    calls = {};
    memory.write(3, data[3]);
    expect_calls("write", 1, 1);
    EXPECT_EQ(memory.read(3).data, data[3]);
    expect_calls("read", 1, 1);
    memory.write_block(0, data);
    expect_calls("write_block", 1, rows);
    std::vector<word_t> out(rows);
    memory.read_block(0, out);
    EXPECT_EQ(out, data);
    expect_calls("read_block", 1, rows);
    ASSERT_TRUE(memory.retire_row_to_region(5, 0, data[5]).has_value());
    expect_calls("retire_row_to_region", 1, 1);
    EXPECT_EQ(memory.read(5).data, data[5]);
    expect_calls("read of a retired row", 1, 1);
    EXPECT_EQ(memory.decode_stored(7, memory.raw_storage_word(7)).data,
              data[7]);
    expect_calls("decode_stored", 1, 1);
  }
}

TEST(BlockCodecTest, ShiftTableMatchesEquationTwo) {
  for (const unsigned width : {8u, 16u, 32u, 64u}) {
    for (unsigned n_fm = 1; n_fm <= log2_exact(width); ++n_fm) {
      const bit_shuffler shuffler(width, n_fm);
      const std::span<const std::uint8_t> table = shuffler.shift_table();
      ASSERT_EQ(table.size(), shuffler.segment_count());
      for (unsigned xfm = 0; xfm < shuffler.segment_count(); ++xfm) {
        EXPECT_EQ(table[xfm],
                  (shuffler.segment_size() * (shuffler.segment_count() - xfm)) %
                      width)
            << "W=" << width << " nFM=" << n_fm << " xFM=" << xfm;
        EXPECT_EQ(table[xfm], shuffler.shift_amount(xfm));
      }
    }
  }
}

}  // namespace
}  // namespace urmem
