#include "urmem/memory/fault_map.hpp"

#include <algorithm>
#include <bit>

namespace urmem {

fault_map::fault_map(array_geometry geometry) : geometry_(geometry) {
  expects(geometry.rows >= 1, "fault_map requires at least one row");
  expects(is_valid_width(geometry.width), "fault_map word width must be 1..64");
  const std::size_t rows = geometry.rows;
  words_.assign(plane_count * rows + (rows + 63) / 64, 0);
  // Folding the width mask into the AND plane keeps every corrupt()
  // output width-masked without a separate masking op in the hot loop.
  std::fill_n(words_.begin(), rows, word_mask(geometry.width));
}

void fault_map::add(const fault& f) {
  expects(f.row < geometry_.rows, "fault row out of range");
  expects(f.col < geometry_.width, "fault column out of range");
  const std::uint32_t row = f.row;
  const word_t bit = word_t{1} << f.col;
  word_t& row_word = words_[slot(plane_count, row / 64)];
  const word_t row_bit = word_t{1} << (row % 64);
  // The bitmap answers for a clean row without reading all five planes.
  if ((row_word & row_bit) == 0 || (fault_cols(row) & bit) == 0) {
    row_word |= row_bit;
    ++count_;
  } else {
    // Replacing an existing fault: clear its previous behaviour first.
    words_[slot(and_plane, row)] |= bit;
    for (const plane p : {or_plane, xor_plane, tf_up_plane, tf_down_plane}) {
      words_[slot(p, row)] &= ~bit;
    }
  }
  // Stuck-at-0 is the one kind that clears its bit (in the AND plane)
  // instead of setting it.
  word_t& kind_word = words_[slot(static_cast<plane>(f.kind), row)];
  if (f.kind == fault_kind::stuck_at_zero) {
    kind_word &= ~bit;
  } else {
    kind_word |= bit;
  }
}

std::vector<fault> fault_map::faults_in_row(std::uint32_t row) const {
  std::vector<fault> out;
  for (word_t pending = fault_cols(row); pending != 0; pending &= pending - 1) {
    const auto col = static_cast<std::uint32_t>(std::countr_zero(pending));
    const word_t bit = word_t{1} << col;
    fault f{row, col, fault_kind::stuck_at_zero};
    for (const plane p : {or_plane, xor_plane, tf_up_plane, tf_down_plane}) {
      if ((at(p, row) & bit) != 0) f.kind = static_cast<fault_kind>(p);
    }
    out.push_back(f);
  }
  return out;
}

std::vector<fault> fault_map::all_faults() const {
  std::vector<fault> out;
  out.reserve(count_);
  for (const std::uint32_t row : faulty_rows()) {
    const auto row_faults = faults_in_row(row);
    out.insert(out.end(), row_faults.begin(), row_faults.end());
  }
  return out;
}

std::vector<std::uint32_t> fault_map::faulty_rows() const {
  std::vector<std::uint32_t> out;
  const std::size_t bitmap_words = (std::size_t{geometry_.rows} + 63) / 64;
  for (std::size_t w = 0; w < bitmap_words; ++w) {
    for (word_t pending = at(plane_count, w); pending != 0;
         pending &= pending - 1) {
      out.push_back(static_cast<std::uint32_t>(w * 64) +
                    static_cast<std::uint32_t>(std::countr_zero(pending)));
    }
  }
  return out;
}

bool fault_map::rows_fault_free(std::uint32_t first, std::size_t count) const {
  expects(first <= geometry_.rows && count <= geometry_.rows - first,
          "row range out of bounds");
  if (count_ == 0 || count == 0) return true;
  const std::size_t last = first + count - 1;
  const std::size_t first_word = first / 64;
  const std::size_t last_word = last / 64;
  for (std::size_t w = first_word; w <= last_word; ++w) {
    word_t in_range = ~word_t{0};
    if (w == first_word) in_range &= ~word_t{0} << (first % 64);
    if (w == last_word && last % 64 != 63) {
      in_range &= (word_t{1} << (last % 64 + 1)) - 1;
    }
    if ((at(plane_count, w) & in_range) != 0) return false;
  }
  return true;
}

void fault_map::corrupt_rows(std::uint32_t first,
                             std::span<word_t> words) const {
  expects(first <= geometry_.rows && words.size() <= geometry_.rows - first,
          "row range out of bounds");
  if (rows_fault_free(first, words.size())) return;  // already width-masked
  const word_t* a = words_.data() + slot(and_plane, first);
  const word_t* o = words_.data() + slot(or_plane, first);
  const word_t* x = words_.data() + slot(xor_plane, first);
  word_t* w = words.data();
  const std::size_t count = words.size();
  for (std::size_t i = 0; i < count; ++i) {
    w[i] = ((w[i] & a[i]) | o[i]) ^ x[i];
  }
}

void fault_map::apply_write_rows(std::uint32_t first,
                                 std::span<const word_t> incoming,
                                 std::span<word_t> storage) const {
  expects(incoming.size() == storage.size(),
          "incoming/storage span size mismatch");
  expects(first <= geometry_.rows && incoming.size() <= geometry_.rows - first,
          "row range out of bounds");
  const word_t mask = word_mask(geometry_.width);
  const std::size_t count = incoming.size();
  if (rows_fault_free(first, count)) {
    for (std::size_t i = 0; i < count; ++i) storage[i] = incoming[i] & mask;
    return;
  }
  const word_t* up = words_.data() + slot(tf_up_plane, first);
  const word_t* down = words_.data() + slot(tf_down_plane, first);
  for (std::size_t i = 0; i < count; ++i) {
    const word_t value = incoming[i] & mask;
    const word_t old = storage[i];
    const word_t blocked_up = up[i] & ~old & value;
    const word_t blocked_down = down[i] & old & ~value;
    storage[i] = (value & ~blocked_up) | blocked_down;
  }
}

word_t fault_map::corrupt_reference(std::uint32_t row, word_t ideal) const {
  word_t out = ideal & word_mask(geometry_.width);
  for (word_t pending = fault_cols(row); pending != 0; pending &= pending - 1) {
    const word_t bit = pending & (~pending + 1);
    if ((at(and_plane, row) & bit) == 0) out &= ~bit;     // stuck-at-0
    else if ((at(or_plane, row) & bit) != 0) out |= bit;  // stuck-at-1
    else if ((at(xor_plane, row) & bit) != 0) out ^= bit; // flip
    // transition faults act at write time: read-transparent here
  }
  return out;
}

word_t fault_map::apply_write_reference(std::uint32_t row, word_t old,
                                        word_t incoming) const {
  const word_t mask = word_mask(geometry_.width);
  old &= mask;
  word_t out = incoming & mask;
  for (word_t pending = fault_cols(row); pending != 0; pending &= pending - 1) {
    const word_t bit = pending & (~pending + 1);
    if ((at(tf_up_plane, row) & bit) != 0 && (old & bit) == 0 &&
        (out & bit) != 0) {
      out &= ~bit;  // blocked 0 -> 1: the cell keeps its 0
    } else if ((at(tf_down_plane, row) & bit) != 0 && (old & bit) != 0 &&
               (out & bit) == 0) {
      out |= bit;  // blocked 1 -> 0: the cell keeps its 1
    }
  }
  return out;
}

}  // namespace urmem
