// Persistent bit-cell fault maps.
//
// Once an SRAM array is manufactured (or operated at a given supply
// voltage) the set of failing bit-cells is fixed (paper Sec. 2). A
// fault_map records those cells together with their failure behaviour and
// can corrupt a stored word the way the physical array would.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "urmem/common/bitops.hpp"
#include "urmem/common/contracts.hpp"

namespace urmem {

/// Array geometry: `rows` words of `width` bits each.
struct array_geometry {
  std::uint32_t rows = 0;
  std::uint32_t width = 0;

  /// Total number of bit-cells M = R * W (paper Sec. 2).
  [[nodiscard]] constexpr std::uint64_t cells() const {
    return static_cast<std::uint64_t>(rows) * width;
  }

  /// Linear index of cell (row, col); col 0 is the word's LSB.
  [[nodiscard]] constexpr std::uint64_t cell_index(std::uint32_t row,
                                                   std::uint32_t col) const {
    return static_cast<std::uint64_t>(row) * width + col;
  }

  friend constexpr bool operator==(const array_geometry&, const array_geometry&) = default;
};

/// The standard 16 KB data memory of the paper: 4096 rows x 32 bits.
[[nodiscard]] constexpr array_geometry geometry_16kb_x32() { return {4096, 32}; }

/// How a failing cell corrupts the bit written to it.
enum class fault_kind : std::uint8_t {
  stuck_at_zero,         ///< cell always reads 0
  stuck_at_one,          ///< cell always reads 1
  flip,                  ///< cell always reads the complement of the stored bit
  transition_up_fail,    ///< cell cannot perform a 0 -> 1 write transition
  transition_down_fail,  ///< cell cannot perform a 1 -> 0 write transition
};

/// One failing bit-cell.
struct fault {
  std::uint32_t row = 0;
  std::uint32_t col = 0;  ///< bit position within the word, 0 = LSB
  fault_kind kind = fault_kind::flip;

  friend constexpr bool operator==(const fault&, const fault&) = default;
};

/// Set of failing cells of one array instance, stored in the form the
/// injection hot loop reads: one contiguous per-row array per mask kind
/// (AND for stuck-at-0 with the width mask folded in, OR for stuck-at-1,
/// XOR for flip, plus the two transition-fail planes) and a faulty-row
/// bitmap. add() updates the planes in place, so a map is always ready
/// to serve O(1) word ops and batched row-range ops whose fault-free
/// spans skip the mask pass entirely.
class fault_map {
 public:
  fault_map() = default;

  /// Creates an empty (fault-free) map for the given geometry.
  explicit fault_map(array_geometry geometry);

  [[nodiscard]] const array_geometry& geometry() const { return geometry_; }

  /// Registers a failing cell. Re-adding the same cell replaces its kind.
  void add(const fault& f);

  /// Total number of failing cells N.
  [[nodiscard]] std::uint64_t fault_count() const { return count_; }

  /// True when row `row` contains at least one failing cell.
  [[nodiscard]] bool row_has_faults(std::uint32_t row) const {
    expects(row < geometry_.rows, "row out of range");
    return ((at(plane_count, row / 64) >> (row % 64)) & 1) != 0;
  }

  /// Failing columns of `row` as one word (bit c set = column c faulty).
  [[nodiscard]] word_t fault_cols(std::uint32_t row) const {
    expects(row < geometry_.rows, "row out of range");
    return (~at(and_plane, row) & word_mask(geometry_.width)) |
           at(or_plane, row) | at(xor_plane, row) | at(tf_up_plane, row) |
           at(tf_down_plane, row);
  }

  /// Failing cells in `row`, in ascending column order.
  [[nodiscard]] std::vector<fault> faults_in_row(std::uint32_t row) const;

  /// All failing cells, in ascending (row, col) order.
  [[nodiscard]] std::vector<fault> all_faults() const;

  /// Rows that contain at least one failing cell, ascending.
  [[nodiscard]] std::vector<std::uint32_t> faulty_rows() const;

  /// Returns the word actually read back when `ideal` is stored in `row`
  /// (bits above the width are ignored): three word ops. Covers the
  /// read-visible kinds (stuck-at, flip); transition faults act at write
  /// time — see apply_write.
  [[nodiscard]] word_t corrupt(std::uint32_t row, word_t ideal) const {
    expects(row < geometry_.rows, "row out of range");
    return ((ideal & at(and_plane, row)) | at(or_plane, row)) ^
           at(xor_plane, row);
  }

  /// Write-time fault semantics: the cell contents after writing
  /// `incoming` over the previous contents `old` of `row`. Transition-
  /// fault cells keep their old bit when the blocked transition is
  /// requested; all other kinds store `incoming` (their corruption is
  /// applied on read).
  [[nodiscard]] word_t apply_write(std::uint32_t row, word_t old,
                                   word_t incoming) const {
    expects(row < geometry_.rows, "row out of range");
    const word_t mask = word_mask(geometry_.width);
    old &= mask;
    incoming &= mask;
    // A blocked rising transition keeps the old 0; a blocked falling
    // transition keeps the old 1.
    const word_t blocked_up = at(tf_up_plane, row) & ~old & incoming;
    const word_t blocked_down = at(tf_down_plane, row) & old & ~incoming;
    return (incoming & ~blocked_up) | blocked_down;
  }

  /// True when rows [first, first + count) contain no failing cell —
  /// the bitmap fast path that lets batched ops skip clean spans.
  [[nodiscard]] bool rows_fault_free(std::uint32_t first,
                                     std::size_t count) const;

  /// Applies read corruption in place to `words`, where `words[i]` is
  /// the (width-masked) stored content of row `first + i`.
  void corrupt_rows(std::uint32_t first, std::span<word_t> words) const;

  /// Batched write: `storage[i]` (the current content of row
  /// `first + i`) becomes apply_write(first + i, storage[i], incoming[i]).
  void apply_write_rows(std::uint32_t first, std::span<const word_t> incoming,
                        std::span<word_t> storage) const;

  /// Reference read semantics: walks the row's failing cells one at a
  /// time and applies each fault individually — the per-fault debug
  /// oracle the mask ops are validated against (property tests and the
  /// CI perf gate). Bit-identical to corrupt().
  [[nodiscard]] word_t corrupt_reference(std::uint32_t row, word_t ideal) const;

  /// Reference write semantics, per-cell walk; bit-identical to
  /// apply_write().
  [[nodiscard]] word_t apply_write_reference(std::uint32_t row, word_t old,
                                             word_t incoming) const;

 private:
  /// The structure-of-arrays planes, one word per row each. Plane k
  /// holds the cells of fault_kind k.
  enum plane : std::size_t {
    /// width mask minus stuck-at-0 columns
    and_plane = static_cast<std::size_t>(fault_kind::stuck_at_zero),
    /// stuck-at-1 columns
    or_plane = static_cast<std::size_t>(fault_kind::stuck_at_one),
    /// flip columns
    xor_plane = static_cast<std::size_t>(fault_kind::flip),
    /// columns that cannot rise 0 -> 1
    tf_up_plane = static_cast<std::size_t>(fault_kind::transition_up_fail),
    /// columns that cannot fall 1 -> 0
    tf_down_plane = static_cast<std::size_t>(fault_kind::transition_down_fail),
    plane_count,
  };

  /// Index into words_ of `row`'s word in plane `p`; plane_count
  /// addresses the faulty-row bitmap (bit row % 64 of word row / 64).
  [[nodiscard]] std::size_t slot(plane p, std::size_t row) const {
    return p * std::size_t{geometry_.rows} + row;
  }
  [[nodiscard]] word_t at(plane p, std::size_t row) const {
    return words_[slot(p, row)];
  }

  array_geometry geometry_{};
  std::uint64_t count_ = 0;
  // One allocation, [AND | OR | XOR | TF-up | TF-down | bitmap]: a map
  // is built (and copied) once per tile, so it costs one malloc, not six.
  std::vector<word_t> words_;
};

}  // namespace urmem
