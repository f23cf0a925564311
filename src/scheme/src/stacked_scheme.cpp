#include "urmem/scheme/stacked_scheme.hpp"

#include <utility>

#include "urmem/common/contracts.hpp"

namespace urmem {

namespace {

std::unique_ptr<protection_scheme> make_ecc_stage(
    unsigned width, stacked_scheme::ecc_stage ecc, unsigned protected_bits) {
  if (ecc == stacked_scheme::ecc_stage::secded) return make_scheme_secded(width);
  return make_scheme_pecc(width, protected_bits);
}

}  // namespace

stacked_scheme::stacked_scheme(std::uint32_t rows, unsigned width,
                               unsigned n_fm, ecc_stage ecc,
                               shift_policy policy, unsigned protected_bits)
    : stacked_scheme(rows, width, n_fm, policy,
                     make_ecc_stage(width, ecc, protected_bits)) {}

stacked_scheme::stacked_scheme(std::uint32_t rows, unsigned width,
                               unsigned n_fm, shift_policy policy,
                               std::unique_ptr<protection_scheme> ecc)
    : protection_scheme({"nFM=" + std::to_string(n_fm) + "+" + ecc->name(),
                         width, ecc->storage_bits(), n_fm}),
      rows_(rows),
      shuffle_(rows, width, n_fm, policy),
      ecc_(std::move(ecc)) {
  ensures(ecc_->data_bits() == shuffle_.storage_bits(),
          "stacked stages must agree on the word width");
}

void stacked_scheme::configure(const fault_map& faults) {
  expects(faults.geometry().width == storage_bits(),
          "stacked fault map must cover the storage columns");
  // BIST discovers faults in storage-column space; the shuffle stage is
  // programmed from the per-row ECC *residual* — the logical bits that
  // would survive correction — so rows the ECC fully repairs keep xFM=0
  // and multi-fault rows rotate their surviving damage into the LSBs.
  fault_map mapped(array_geometry{rows_, shuffle_.storage_bits()});
  std::vector<std::uint32_t> cols;
  std::vector<std::uint32_t> residual;
  for (const std::uint32_t row : faults.faulty_rows()) {
    cols.clear();
    residual.clear();
    for (const fault& f : faults.faults_in_row(row)) cols.push_back(f.col);
    ecc_->residual_fault_bits(row, cols, residual);
    for (const std::uint32_t bit : residual) {
      mapped.add({row, bit, fault_kind::flip});
    }
  }
  shuffle_.configure(mapped);
}

void stacked_scheme::encode_block(std::uint32_t first_row,
                                  std::span<const word_t> data,
                                  std::span<word_t> out) const {
  // Both stage block paths tolerate aliased spans, so the tile streams
  // through in place: shuffle into `out`, then ECC-encode over it.
  shuffle_.encode_block(first_row, data, out);
  ecc_->encode_block(first_row, out, out);
}

block_decode_stats stacked_scheme::decode_block(std::uint32_t first_row,
                                                std::span<const word_t> stored,
                                                std::span<word_t> out) const {
  const block_decode_stats stats = ecc_->decode_block(first_row, stored, out);
  shuffle_.decode_block(first_row, out, out);  // always clean, no counters
  return stats;
}

word_t stacked_scheme::encode_reference(std::uint32_t row, word_t data) const {
  return ecc_->encode_reference(row, shuffle_.encode_reference(row, data));
}

read_result stacked_scheme::decode_reference(std::uint32_t row,
                                             word_t stored) const {
  const read_result ecc = ecc_->decode_reference(row, stored);
  return {shuffle_.decode_reference(row, ecc.data).data, ecc.status};
}

void stacked_scheme::residual_fault_bits(
    std::uint32_t row, std::span<const std::uint32_t> fault_cols,
    std::vector<std::uint32_t>& out) const {
  std::vector<std::uint32_t> residual;
  ecc_->residual_fault_bits(row, fault_cols, residual);
  shuffle_.residual_fault_bits(row, residual, out);
}

std::unique_ptr<protection_scheme> make_scheme_stacked(
    std::uint32_t rows, unsigned width, unsigned n_fm,
    stacked_scheme::ecc_stage ecc, shift_policy policy, unsigned protected_bits) {
  return std::make_unique<stacked_scheme>(rows, width, n_fm, ecc, policy,
                                          protected_bits);
}

}  // namespace urmem
