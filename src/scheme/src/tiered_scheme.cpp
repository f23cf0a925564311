#include "urmem/scheme/tiered_scheme.hpp"

#include <algorithm>
#include <utility>

#include "urmem/common/contracts.hpp"

namespace urmem {

namespace {

/// Validates the tier list and derives the composite's fixed shape.
scheme_shape tiered_shape(const std::vector<tiered_scheme::tier>& tiers,
                          unsigned storage_bits_hint) {
  expects(!tiers.empty(), "tiered scheme needs at least one tier");
  scheme_shape shape;
  shape.name = "tiered[";
  std::uint32_t next = 0;
  for (const tiered_scheme::tier& t : tiers) {
    expects(t.scheme != nullptr, "tier scheme must not be null");
    expects(t.first_row == next,
            "tiers must be ordered and contiguous from row 0");
    expects(t.last_row >= t.first_row, "tier range must be ascending");
    if (next == 0) {
      shape.data_bits = t.scheme->data_bits();
    } else {
      shape.name += "|";
    }
    expects(t.scheme->data_bits() == shape.data_bits,
            "tiers must agree on the data word width");
    shape.name += std::to_string(t.first_row) + "-" +
                  std::to_string(t.last_row) + ":" + t.scheme->name();
    shape.storage_bits = std::max(shape.storage_bits, t.scheme->storage_bits());
    shape.lut_bits_per_row =
        std::max(shape.lut_bits_per_row, t.scheme->lut_bits_per_row());
    next = t.last_row + 1;
  }
  shape.name += "]";
  // A probe instance clamped to fewer rows may have dropped the widest
  // tier; the hint keeps its geometry that of the full design.
  shape.storage_bits = std::max(shape.storage_bits, storage_bits_hint);
  return shape;
}

}  // namespace

tiered_scheme::tiered_scheme(std::vector<tier> tiers,
                             unsigned storage_bits_hint)
    : protection_scheme(tiered_shape(tiers, storage_bits_hint)),
      tiers_(std::move(tiers)) {}

std::size_t tiered_scheme::tier_of(std::uint32_t row) const {
  expects(row <= tiers_.back().last_row, "row beyond the tiered range");
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    if (row <= tiers_[i].last_row) return i;
  }
  return tiers_.size() - 1;  // unreachable; the precondition covers it
}

void tiered_scheme::configure(const fault_map& faults) {
  expects(faults.geometry().width == storage_bits(),
          "tiered fault map must cover the storage columns");
  expects(faults.geometry().rows >= tiers_.back().last_row + 1,
          "tiered fault map must cover every tier row");
  // Split the BIST-discovered map per tier: rows rebased to the tier's
  // own 0-based range, columns clipped to the columns the tier actually
  // stores (surplus columns belong to a wider sibling tier's geometry
  // and never carry this tier's data).
  for (const tier& t : tiers_) {
    fault_map sub(array_geometry{t.last_row - t.first_row + 1,
                                 t.scheme->storage_bits()});
    for (std::uint32_t row = t.first_row; row <= t.last_row; ++row) {
      if (!faults.row_has_faults(row)) continue;
      for (const fault& f : faults.faults_in_row(row)) {
        if (f.col < t.scheme->storage_bits()) {
          sub.add({row - t.first_row, f.col, f.kind});
        }
      }
    }
    t.scheme->configure(sub);
  }
}

void tiered_scheme::encode_block(std::uint32_t first_row,
                                 std::span<const word_t> data,
                                 std::span<word_t> out) const {
  expects(out.size() == data.size(), "encode_block spans must match");
  std::size_t cursor = 0;
  while (cursor < data.size()) {
    const std::uint32_t row = first_row + static_cast<std::uint32_t>(cursor);
    const tier& t = tiers_[tier_of(row)];
    const std::size_t take =
        std::min<std::size_t>(data.size() - cursor, t.last_row - row + 1);
    t.scheme->encode_block(row - t.first_row, data.subspan(cursor, take),
                           out.subspan(cursor, take));
    cursor += take;
  }
}

block_decode_stats tiered_scheme::decode_block(std::uint32_t first_row,
                                               std::span<const word_t> stored,
                                               std::span<word_t> out) const {
  expects(out.size() == stored.size(), "decode_block spans must match");
  block_decode_stats stats;
  std::size_t cursor = 0;
  while (cursor < stored.size()) {
    const std::uint32_t row = first_row + static_cast<std::uint32_t>(cursor);
    const tier& t = tiers_[tier_of(row)];
    const std::size_t take =
        std::min<std::size_t>(stored.size() - cursor, t.last_row - row + 1);
    // Clip the surplus columns of wider sibling tiers up front (faults
    // there are physically real but land on cells this tier never
    // drives); the masked copy lands in `out`, so the tier decode runs
    // in place and aliasing with `stored` stays legal.
    const word_t mask = word_mask(t.scheme->storage_bits());
    for (std::size_t i = 0; i < take; ++i) out[cursor + i] = stored[cursor + i] & mask;
    const block_decode_stats tier_stats = t.scheme->decode_block(
        row - t.first_row, out.subspan(cursor, take), out.subspan(cursor, take));
    stats.corrected += tier_stats.corrected;
    stats.uncorrectable += tier_stats.uncorrectable;
    cursor += take;
  }
  return stats;
}

word_t tiered_scheme::encode_reference(std::uint32_t row, word_t data) const {
  const tier& t = tiers_[tier_of(row)];
  return t.scheme->encode_reference(row - t.first_row, data);
}

read_result tiered_scheme::decode_reference(std::uint32_t row,
                                            word_t stored) const {
  const tier& t = tiers_[tier_of(row)];
  return t.scheme->decode_reference(row - t.first_row,
                                    stored & word_mask(t.scheme->storage_bits()));
}

std::span<const std::uint32_t> tiered_scheme::clip_cols(
    const tier& t, std::span<const std::uint32_t> fault_cols,
    std::vector<std::uint32_t>& scratch) {
  const unsigned bits = t.scheme->storage_bits();
  const bool all_inside = std::all_of(fault_cols.begin(), fault_cols.end(),
                                      [&](std::uint32_t c) { return c < bits; });
  if (all_inside) return fault_cols;
  scratch.clear();
  for (const std::uint32_t col : fault_cols) {
    if (col < bits) scratch.push_back(col);
  }
  return scratch;
}

void tiered_scheme::residual_fault_bits(
    std::uint32_t row, std::span<const std::uint32_t> fault_cols,
    std::vector<std::uint32_t>& out) const {
  static thread_local std::vector<std::uint32_t> scratch;
  const tier& t = tiers_[tier_of(row)];
  t.scheme->residual_fault_bits(row - t.first_row,
                                clip_cols(t, fault_cols, scratch), out);
}

}  // namespace urmem
