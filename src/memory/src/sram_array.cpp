#include "urmem/memory/sram_array.hpp"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "urmem/common/contracts.hpp"

namespace urmem {

sram_array::sram_array(array_geometry geometry)
    : sram_array(fault_map(geometry)) {}

sram_array::sram_array(fault_map faults)
    : faults_(std::move(faults)), data_(faults_.geometry().rows, 0) {}

void sram_array::set_faults(fault_map faults) {
  expects(faults.geometry() == geometry(), "fault map geometry mismatch");
  faults_ = std::move(faults);
}

fault_path sram_array::default_fault_path() {
  static const fault_path path = [] {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read exactly once, inside a
    // magic-static initializer, before any worker thread exists; nothing
    // in the process calls setenv.
    const char* env = std::getenv("URMEM_FAULT_PATH");
    return env != nullptr && std::string_view(env) == "reference"
               ? fault_path::reference
               : fault_path::compiled;
  }();
  return path;
}

void sram_array::write(std::uint32_t row, word_t value) {
  expects(row < rows(), "row out of range");
  // Transition-fault cells refuse the blocked transition; all other
  // fault kinds corrupt on read.
  value &= word_mask(width());
  data_[row] = path_ == fault_path::reference
                   ? faults_.apply_write_reference(row, data_[row], value)
                   : faults_.apply_write(row, data_[row], value);
  count_accesses(1);
}

word_t sram_array::read(std::uint32_t row) const {
  expects(row < rows(), "row out of range");
  count_accesses(1);
  return path_ == fault_path::reference
             ? faults_.corrupt_reference(row, data_[row])
             : faults_.corrupt(row, data_[row]);
}

void sram_array::write_rows(std::uint32_t first,
                            std::span<const word_t> values) {
  expects(first <= rows() && values.size() <= rows() - first,
          "row range out of bounds");
  if (path_ == fault_path::reference) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      const auto row = first + static_cast<std::uint32_t>(i);
      data_[row] = faults_.apply_write_reference(
          row, data_[row], values[i] & word_mask(width()));
    }
  } else {
    faults_.apply_write_rows(
        first, values, std::span<word_t>(data_).subspan(first, values.size()));
  }
  count_accesses(values.size());
}

void sram_array::read_rows(std::uint32_t first, std::span<word_t> out) const {
  expects(first <= rows() && out.size() <= rows() - first,
          "row range out of bounds");
  count_accesses(out.size());
  if (path_ == fault_path::reference) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      const auto row = first + static_cast<std::uint32_t>(i);
      out[i] = faults_.corrupt_reference(row, data_[row]);
    }
    return;
  }
  std::copy_n(data_.begin() + first, out.size(), out.begin());
  faults_.corrupt_rows(first, out);
}

word_t sram_array::read_ideal(std::uint32_t row) const {
  expects(row < rows(), "row out of range");
  return data_[row];
}

void sram_array::fill(word_t value) {
  for (std::uint32_t row = 0; row < rows(); ++row) write(row, value);
}

}  // namespace urmem
