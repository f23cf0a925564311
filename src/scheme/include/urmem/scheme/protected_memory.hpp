// A faulty SRAM array wrapped by a protection scheme — the functional
// memory model the application experiments (paper Sec. 5.2) read and
// write through.
//
// Optionally the array is manufactured with spare rows: set_fault_map
// then runs the classical laser-fuse repair (row_redundancy) before the
// scheme configures itself, remapping faulty data rows onto fault-free
// spares. Spares fail at the same Pcell as data rows — they are part of
// storage_geometry(), so fault injectors cover them — and whatever the
// repair cannot fix is exactly what the protection scheme sees.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "urmem/memory/sram_array.hpp"
#include "urmem/scheme/protection_scheme.hpp"

namespace urmem {

/// One reliability region of a tile: an inclusive logical row range
/// with its own spare-row pool. Regions must be ordered and tile the
/// logical rows exactly; each region's spares are manufactured after
/// the data rows, grouped in region order, and its repair pass only
/// draws from its own pool (a faulty MSB-critical region cannot steal
/// the tolerant tail's spares).
struct memory_region {
  std::uint32_t first_row = 0;
  std::uint32_t last_row = 0;  ///< inclusive
  std::uint32_t spare_rows = 0;
  /// Columns this region's scheme actually stores; 0 = the full array
  /// width. A heterogeneous tile is manufactured at the widest tier's
  /// width, so a narrower region's surplus columns hold no data —
  /// faults there are harmless, and the region's repair pass must not
  /// burn a spare on (or disqualify a spare for) such a fault.
  unsigned storage_bits = 0;

  [[nodiscard]] std::uint32_t rows() const { return last_row - first_row + 1; }
};

/// Scheme-protected unreliable memory of `rows` words.
class protected_memory {
 public:
  /// Fault-free memory; inject faults later with set_fault_map().
  /// `spare_rows` extra physical rows back the redundancy repair (0 =
  /// no repair stage, the paper's default); this is the homogeneous
  /// one-region special case of the region constructor.
  protected_memory(std::uint32_t rows, std::unique_ptr<protection_scheme> scheme,
                   std::uint32_t spare_rows = 0);

  /// Heterogeneous-reliability tile: `regions` must tile [0, rows)
  /// exactly (ordered, gap-free); each region owns its spare pool.
  protected_memory(std::uint32_t rows, std::unique_ptr<protection_scheme> scheme,
                   std::vector<memory_region> regions);

  /// Logical (addressable) rows; spares are not directly addressable.
  [[nodiscard]] std::uint32_t rows() const { return logical_rows_; }
  /// Total manufactured spares (summed over regions).
  [[nodiscard]] std::uint32_t spare_rows() const { return spare_rows_; }
  [[nodiscard]] const protection_scheme& scheme() const { return *scheme_; }
  [[nodiscard]] const sram_array& array() const { return array_; }

  /// The region table (always non-empty; the legacy constructor makes
  /// one region spanning every row).
  [[nodiscard]] const std::vector<memory_region>& regions() const {
    return regions_;
  }

  /// First physical row of region `index`'s spare pool (its spares are
  /// the `regions()[index].spare_rows` rows from there).
  [[nodiscard]] std::uint32_t region_spare_base(std::size_t index) const;

  /// Manufactured storage geometry (data + spare rows x storage_bits)
  /// the fault maps must use.
  [[nodiscard]] array_geometry storage_geometry() const {
    return array_.geometry();
  }

  /// Installs a fault map (geometry = storage_geometry()), runs each
  /// region's spare-row repair when that region has spares, and lets
  /// the scheme reconfigure itself from the (post-repair) faults, the
  /// way a BIST + fuse + BIST flow would. A fault-free map short-
  /// circuits the repair pass entirely: row_remaps() stays empty and no
  /// repair engine runs.
  void set_fault_map(fault_map faults);

  /// (logical row -> spare row) assignments of the last repair.
  [[nodiscard]] const std::vector<std::pair<std::uint32_t, std::uint32_t>>&
  row_remaps() const {
    return remaps_;
  }

  /// Replaces the installed fault map in place — the fault-lifecycle
  /// epoch step. Unlike set_fault_map this neither re-runs the spare
  /// repair (laser fuses blow once, at manufacture) nor reconfigures
  /// the scheme (no POST between epochs): stored data, remaps and the
  /// scheme configuration all survive, only the fault population moves.
  void update_fault_map(fault_map faults);

  /// Retires logical `row` onto an unused fault-free spare from its own
  /// region's pool, storing `data` (re-encoded) there — the runtime
  /// row-retirement step layered above ECC. Spares age like data rows:
  /// a spare is eligible only when the *current* fault map leaves its
  /// storage bits clean. Returns the physical spare row, or nullopt
  /// when the pool is exhausted (all used or all faulty). Re-retiring
  /// an already-remapped row replaces the mapping; the worn-out spare
  /// stays consumed.
  std::optional<std::uint32_t> retire_row(std::uint32_t row, word_t data);

  /// Like retire_row but draws from region `region_index`'s pool
  /// instead of the row's own — the cross-region degradation remap
  /// (move a failing row into the reliable tier's spares).
  std::optional<std::uint32_t> retire_row_to_region(std::uint32_t row,
                                                    std::size_t region_index,
                                                    word_t data);

  /// Spares of region `index` still unused (used = consumed by repair
  /// or runtime retirement; faulty-but-unused spares still count here —
  /// eligibility is re-checked against the live map at retire time).
  [[nodiscard]] std::uint32_t unused_spares(std::size_t index) const;

  /// Region index containing logical `row`.
  [[nodiscard]] std::size_t region_of(std::uint32_t row) const;

  /// Physical row currently serving logical `row` (identity unless
  /// remapped) — where the lifecycle layer's raw retry reads land.
  [[nodiscard]] std::uint32_t physical_row_of(std::uint32_t row) const {
    return physical_row(row);
  }

  /// The raw (encoded, fault-free backdoor) storage word behind logical
  /// `row` — the pristine stored codeword a read-retry re-corrupts
  /// through the timeline's intermittent-cell model.
  [[nodiscard]] word_t raw_storage_word(std::uint32_t row) const {
    return array_.read_ideal(physical_row(row));
  }

  /// Selects the compiled fast machinery or the reference oracle for
  /// subsequent accesses — switches both the array's fault application
  /// (see sram_array::set_fault_path) and the scheme codec path of every
  /// access below (block codecs vs the per-word reference codecs).
  void set_fault_path(fault_path path) { array_.set_fault_path(path); }

  /// Encodes and stores a data word.
  void write(std::uint32_t row, word_t data);

  /// Reads and decodes a data word through the faulty array.
  [[nodiscard]] read_result read(std::uint32_t row) const;

  /// Decodes `stored` as logical `row`'s stored word through the
  /// selected codec path — the lifecycle layer's raw-retry decode.
  [[nodiscard]] read_result decode_stored(std::uint32_t row,
                                          word_t stored) const;

  /// Decode outcome counters of a batched read_block — the scheme
  /// layer's counters, accumulated over the whole block.
  using block_stats = block_decode_stats;

  /// Encodes `data` and streams it into rows [first, first + size):
  /// one scheme->encode_block call into the tile scratch, then one
  /// batched row op — no per-word virtual calls. When the array runs
  /// the reference fault path (URMEM_FAULT_PATH=reference or
  /// set_fault_path), encoding drops to the per-word
  /// scheme->encode_reference oracle instead, so the figure benches
  /// differentially test block-vs-reference codecs in one switch.
  void write_block(std::uint32_t first, std::span<const word_t> data);

  /// Streams rows [first, first + size) out of the array and decodes
  /// them into `out` (in place over the raw storage words) through
  /// scheme->decode_block (or the per-word decode_reference oracle on
  /// the reference path), accumulating decode outcomes into `stats`
  /// when given.
  void read_block(std::uint32_t first, std::span<word_t> out,
                  block_stats* stats = nullptr) const;

  /// Analytic MSE of the current fault map under this scheme — Eq. (6)
  /// evaluated over all rows: (1/R) * sum_i (2^{b_i})^2.
  [[nodiscard]] double analytic_mse() const;

  /// Analytic MSE restricted to logical rows [first, last] (inclusive),
  /// normalized by that range's row count — the per-region residual
  /// breakdown of the heterogeneous-reliability reports.
  [[nodiscard]] double analytic_mse(std::uint32_t first, std::uint32_t last) const;

  /// Number of logical rows whose current fault population exceeds the
  /// scheme's correction guarantee (nonzero analytic residual) — the
  /// exact integer behind the serving tier's quality_query. Depends
  /// only on the installed fault map and remap table, so it is a pure
  /// function of the lifecycle epoch.
  [[nodiscard]] std::uint64_t residual_rows() const;

 private:
  /// Physical row serving logical `row` (identity unless remapped).
  [[nodiscard]] std::uint32_t physical_row(std::uint32_t row) const;

  /// Scalar encode through the selected codec path.
  [[nodiscard]] word_t encode_word(std::uint32_t row, word_t data) const;

  std::unique_ptr<protection_scheme> scheme_;
  std::uint32_t logical_rows_;
  std::uint32_t spare_rows_;
  std::vector<memory_region> regions_;
  /// Physical first spare row per region (prefix layout, region order).
  std::vector<std::uint32_t> spare_bases_;
  sram_array array_;
  /// Sorted (logical row -> spare row) remaps; empty without repair.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> remaps_;
  /// Per-spare consumption flags, indexed by (physical - logical_rows_);
  /// set by manufacture repair and runtime retirement alike.
  std::vector<bool> spare_used_;
};

}  // namespace urmem
