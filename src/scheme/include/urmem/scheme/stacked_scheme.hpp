// Stacked protection: significance-driven bit-shuffling composed with a
// whole-word ECC stage — the combinatorial design points ("shuffle +
// SECDED", "shuffle + P-ECC") the scheme registry exposes for
// heterogeneous-reliability exploration.
//
// Pipeline (write direction):
//
//   data --shuffle (W bits)--> shuffled word --ECC encode--> storage row
//
// and the reverse on read: ECC decode first, then un-shuffle. The ECC
// corrects any single fault in the stored codeword; when it is
// overwhelmed (>= 2 faults), the raw bits pass through and the shuffle
// stage — programmed from the ECC-residual fault positions discovered
// by BIST — has rotated the word so the surviving corruption lands on
// the least-significant segments. The stack therefore degrades from
// "exact" to "bounded-magnitude" instead of from "exact" to "2^31".
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "urmem/scheme/protection_scheme.hpp"

namespace urmem {

/// Shuffle-under-ECC composition; see the header comment for the data
/// path. The ECC stage is a secded_scheme or pecc_scheme.
class stacked_scheme final : public protection_scheme {
 public:
  /// Which ECC wraps the shuffled word.
  enum class ecc_stage : std::uint8_t { secded, pecc };

  /// `rows` x `width` logical geometry; `n_fm` shuffle LUT bits;
  /// `protected_bits` only applies to the pecc stage.
  stacked_scheme(std::uint32_t rows, unsigned width, unsigned n_fm,
                 ecc_stage ecc, shift_policy policy = shift_policy::min_mse,
                 unsigned protected_bits = 16);

  void configure(const fault_map& faults) override;
  void encode_block(std::uint32_t first_row, std::span<const word_t> data,
                    std::span<word_t> out) const override;
  block_decode_stats decode_block(std::uint32_t first_row,
                                  std::span<const word_t> stored,
                                  std::span<word_t> out) const override;
  [[nodiscard]] word_t encode_reference(std::uint32_t row,
                                        word_t data) const override;
  [[nodiscard]] read_result decode_reference(std::uint32_t row,
                                             word_t stored) const override;
  void residual_fault_bits(std::uint32_t row,
                           std::span<const std::uint32_t> fault_cols,
                           std::vector<std::uint32_t>& out) const override;

 private:
  stacked_scheme(std::uint32_t rows, unsigned width, unsigned n_fm,
                 shift_policy policy, std::unique_ptr<protection_scheme> ecc);

  std::uint32_t rows_;
  shuffle_protection shuffle_;               // pre-stage over the data word
  std::unique_ptr<protection_scheme> ecc_;   // secded_scheme or pecc_scheme
};

/// Factory matching make_scheme_none/secded/pecc/shuffle.
[[nodiscard]] std::unique_ptr<protection_scheme> make_scheme_stacked(
    std::uint32_t rows, unsigned width, unsigned n_fm,
    stacked_scheme::ecc_stage ecc, shift_policy policy = shift_policy::min_mse,
    unsigned protected_bits = 16);

}  // namespace urmem
