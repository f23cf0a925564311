// Uniform interface over the fault-handling techniques the paper
// compares (Sec. 5): no protection, H(39,32) SECDED ECC, H(22,16)
// priority-ECC, and the proposed bit-shuffling scheme.
//
// A protection scheme maps a W-bit data word to a stored row of
// storage_bits() columns and back. Schemes that rely on BIST-discovered
// fault locations (bit-shuffling) are (re)configured through
// configure(); ECC-based schemes ignore it.
//
// Each scheme implements one codec path and one cost rule:
//
//   * encode_block/decode_block — the compiled codecs. Scalar
//     encode()/decode() are one-element block calls, not a second path.
//   * encode_reference/decode_reference — the per-bit oracle the block
//     codecs were derived from; protected_memory switches to it under
//     URMEM_FAULT_PATH=reference, so it ships in production binaries.
//   * residual_fault_bits(row, cols) — the logical bits that survive
//     correction in a faulty row. worst_case_row_cost(row, cols), the
//     row's Eq. (6) contribution, is derived from it as sum 4^b; the
//     yield machinery (Fig. 5) evaluates millions of fault maps through
//     it without touching stored data.
//
// Name, widths, LUT bits and the correction guarantee are a
// scheme_shape fixed at construction.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "urmem/common/bitops.hpp"
#include "urmem/ecc/bch.hpp"
#include "urmem/ecc/hamming_secded.hpp"
#include "urmem/ecc/hsiao.hpp"
#include "urmem/ecc/priority_ecc.hpp"
#include "urmem/memory/fault_map.hpp"
#include "urmem/shuffle/shuffle_scheme.hpp"

namespace urmem {

/// Result of reading one word through a protection scheme.
struct read_result {
  word_t data = 0;
  ecc_status status = ecc_status::clean;
};

/// Decode outcome counters accumulated over one decode_block call.
struct block_decode_stats {
  std::uint64_t corrected = 0;        ///< words with a corrected single error
  std::uint64_t uncorrectable = 0;    ///< words flagged detected_uncorrectable

  void count(ecc_status status) {
    if (status == ecc_status::corrected) ++corrected;
    else if (status == ecc_status::detected_uncorrectable) ++uncorrectable;
  }
};

/// Labels and geometry of a scheme, fixed when it is built.
struct scheme_shape {
  std::string name;                  ///< table label, e.g. "nFM=2"
  unsigned data_bits = 0;            ///< logical data word width W
  unsigned storage_bits = 0;         ///< stored row width (data + parity)
  unsigned lut_bits_per_row = 0;     ///< side-table bits per row (nFM)
  unsigned guaranteed_correctable_bits = 0;  ///< t of a t-error code
};

/// Abstract fault-mitigation technique for a fixed-geometry memory.
///
/// Six virtual hooks make a scheme: configure, the block codecs, the
/// reference codecs and the per-row residual. Everything else — the
/// scalar codecs and the Eq. (6) row cost — is derived here once.
class protection_scheme {
 public:
  virtual ~protection_scheme() = default;
  protection_scheme(const protection_scheme&) = delete;
  protection_scheme& operator=(const protection_scheme&) = delete;

  /// The fixed labels and geometry; delegating wrappers pass it on.
  [[nodiscard]] const scheme_shape& shape() const { return shape_; }

  /// Human-readable name used in benchmark tables, e.g. "nFM=2".
  [[nodiscard]] const std::string& name() const { return shape_.name; }

  /// Width of the logical data word W.
  [[nodiscard]] unsigned data_bits() const { return shape_.data_bits; }

  /// Stored row width (data + parity columns); LUT columns of the
  /// shuffling scheme are tracked separately (see lut_bits_per_row).
  [[nodiscard]] unsigned storage_bits() const { return shape_.storage_bits; }

  /// Extra side-table bits per row (nFM for bit-shuffling, 0 otherwise).
  [[nodiscard]] unsigned lut_bits_per_row() const {
    return shape_.lut_bits_per_row;
  }

  /// Number of per-row bit errors the scheme is guaranteed to correct
  /// at any positions (the t of a t-error-correcting code): 1 for
  /// SEC-DED-class schemes, t for BCH, 0 for schemes with no such
  /// guarantee (none, shuffle, P-ECC). The exhaustive verification
  /// harness derives its enumeration depth (t+1) from this.
  [[nodiscard]] unsigned guaranteed_correctable_bits() const {
    return shape_.guaranteed_correctable_bits;
  }

  /// Re-programs the scheme from a BIST-discovered fault map. The map's
  /// geometry must cover storage_bits() columns. Default: no-op.
  virtual void configure(const fault_map& faults);

  /// Batched encode of rows [first_row, first_row + data.size()): one
  /// virtual call per tile, a devirtualized loop over the scheme's
  /// compiled codec tables inside. `out` may alias `data` and must
  /// match its length.
  virtual void encode_block(std::uint32_t first_row,
                            std::span<const word_t> data,
                            std::span<word_t> out) const = 0;

  /// Batched decode of rows [first_row, first_row + stored.size()),
  /// with the per-word statuses accumulated into the returned counters.
  /// `out` may alias `stored`.
  virtual block_decode_stats decode_block(std::uint32_t first_row,
                                          std::span<const word_t> stored,
                                          std::span<word_t> out) const = 0;

  /// Reference (oracle) scalar encode/decode: the per-bit codec walks
  /// the compiled block paths were derived from, bit-identical to them.
  /// protected_memory routes every access through these when
  /// URMEM_FAULT_PATH=reference, so the figure benches and oracle diffs
  /// test the compiled layer end to end.
  [[nodiscard]] virtual word_t encode_reference(std::uint32_t row,
                                                word_t data) const = 0;
  [[nodiscard]] virtual read_result decode_reference(std::uint32_t row,
                                                     word_t stored) const = 0;

  /// Appends the logical bit significances b_i that remain corrupted
  /// after the scheme's correction, for `row` whose faulty storage
  /// columns are `fault_cols`, assuming two's-complement integer data
  /// and BIST-optimal configuration — the worst-case residual behind
  /// Eq. (6). Homogeneous schemes ignore `row`; tiered_scheme charges
  /// each row at its own tier. Composition layers (stacked_scheme) feed
  /// one stage's residual into the next stage as its fault columns.
  virtual void residual_fault_bits(std::uint32_t row,
                                   std::span<const std::uint32_t> fault_cols,
                                   std::vector<std::uint32_t>& out) const = 0;

  /// Scalar encode: a one-element encode_block call.
  [[nodiscard]] word_t encode(std::uint32_t row, word_t data) const;

  /// Scalar decode: a one-element decode_block call; the status comes
  /// from the returned counters.
  [[nodiscard]] read_result decode(std::uint32_t row, word_t stored) const;

  /// Worst-case squared error magnitude sum_i (2^{b_i})^2 of `row`
  /// (Eq. 6), summed over residual_fault_bits(row, fault_cols) in the
  /// order the bits are appended.
  [[nodiscard]] double worst_case_row_cost(
      std::uint32_t row, std::span<const std::uint32_t> fault_cols) const;

  /// Older name of worst_case_row_cost(row, fault_cols), kept only
  /// because the perfbench harness still calls it.
  [[nodiscard]] double worst_case_row_cost_at(
      std::uint32_t row, std::span<const std::uint32_t> fault_cols) const {
    return worst_case_row_cost(row, fault_cols);
  }

 protected:
  explicit protection_scheme(scheme_shape shape) : shape_(std::move(shape)) {}

 private:
  scheme_shape shape_;
};

/// Pass-through scheme: the unprotected memory of the paper's baselines.
class none_scheme final : public protection_scheme {
 public:
  explicit none_scheme(unsigned width = 32);

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
};

/// Classical SECDED ECC on the whole word — H(39,32) for 32-bit data.
class secded_scheme final : public protection_scheme {
 public:
  explicit secded_scheme(unsigned width = 32);

  [[nodiscard]] const hamming_secded& code() const { return code_; }
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
  explicit secded_scheme(hamming_secded code);

  hamming_secded code_;
};

/// Hsiao SEC-DED ECC on the whole word — the balanced odd-weight-column
/// construction real SRAM macros use; Hsiao(39,32) for 32-bit data.
/// The codec is shared immutably between instances so per-trial scheme
/// construction (quality experiments build one per tile) never rebuilds
/// the LUTs.
class hsiao_scheme final : public protection_scheme {
 public:
  explicit hsiao_scheme(unsigned width = 32, unsigned check_bits = 0);
  explicit hsiao_scheme(std::shared_ptr<const hsiao_code> code);

  [[nodiscard]] const hsiao_code& code() const { return *code_; }
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
  std::shared_ptr<const hsiao_code> code_;
};

/// t-error-correcting parity-extended BCH ECC on the whole word —
/// BCH(45,32,t=2) for 32-bit data. The codec (whose dense correction
/// table can run to megabytes) is shared immutably between instances.
class bch_scheme final : public protection_scheme {
 public:
  explicit bch_scheme(unsigned width = 32, unsigned t = 2);
  explicit bch_scheme(std::shared_ptr<const bch_code> code);

  [[nodiscard]] const bch_code& code() const { return *code_; }
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
  std::shared_ptr<const bch_code> code_;
};

/// Priority-based ECC — H(22,16) over the 16 MSBs for 32-bit data.
class pecc_scheme final : public protection_scheme {
 public:
  explicit pecc_scheme(unsigned width = 32, unsigned protected_bits = 16);

  [[nodiscard]] const priority_ecc& codec() const { return codec_; }
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
  explicit pecc_scheme(priority_ecc codec);

  priority_ecc codec_;
};

/// The proposed significance-driven bit-shuffling scheme. Its reference
/// codecs are the scalar LUT walk (shuffle_scheme::apply_write /
/// restore_read); the block codecs run over the precomputed shift table.
class shuffle_protection final : public protection_scheme {
 public:
  shuffle_protection(std::uint32_t rows, unsigned width, unsigned n_fm,
                     shift_policy policy = shift_policy::min_mse);

  [[nodiscard]] const shuffle_scheme& impl() const { return impl_; }
  [[nodiscard]] shuffle_scheme& impl() { return impl_; }
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
  shuffle_scheme impl_;
  shift_policy policy_;
};

/// Factory helpers covering the paper's comparison set for a 4096-row,
/// 32-bit memory: no-correction, H(39,32), H(22,16) P-ECC, nFM=1..5.
[[nodiscard]] std::unique_ptr<protection_scheme> make_scheme_none(unsigned width = 32);
[[nodiscard]] std::unique_ptr<protection_scheme> make_scheme_secded(unsigned width = 32);
[[nodiscard]] std::unique_ptr<protection_scheme> make_scheme_pecc(
    unsigned width = 32, unsigned protected_bits = 16);
[[nodiscard]] std::unique_ptr<protection_scheme> make_scheme_shuffle(
    std::uint32_t rows, unsigned width, unsigned n_fm,
    shift_policy policy = shift_policy::min_mse);
[[nodiscard]] std::unique_ptr<protection_scheme> make_scheme_hsiao(
    unsigned width = 32, unsigned check_bits = 0);
[[nodiscard]] std::unique_ptr<protection_scheme> make_scheme_bch(
    unsigned width = 32, unsigned t = 2);

}  // namespace urmem
