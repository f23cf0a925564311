#include "urmem/scheme/protection_scheme.hpp"

#include <cmath>

#include "urmem/common/contracts.hpp"

namespace urmem {

namespace {

/// (2^bit)^2 — the squared error magnitude of a flipped two's-complement
/// integer bit (Eq. 6 uses 2^b regardless of sign; the sign bit's
/// magnitude is 2^(W-1) by the same convention).
double squared_bit_error(unsigned bit) {
  return std::ldexp(1.0, 2 * static_cast<int>(bit));
}

/// One length check per block call; the per-word loops below stay
/// contract-free.
void check_block_spans(std::size_t in, std::size_t out) {
  expects(in == out, "block output span must match the input length");
}

/// The data-column residual of a whole-word code correcting up to
/// `correctable` faults: beyond that the decoder hands the raw data
/// bits through, so every faulty *data* column corrupts its logical
/// bit; check-column faults touch no data bit.
template <class Code>
void whole_word_residual(const Code& code, std::size_t correctable,
                         std::span<const std::uint32_t> fault_cols,
                         std::vector<std::uint32_t>& out) {
  if (fault_cols.size() <= correctable) return;
  for (const std::uint32_t col : fault_cols) {
    const int bit = code.data_bit_at_column(col);
    if (bit >= 0) out.push_back(static_cast<std::uint32_t>(bit));
  }
}

/// Encodes/decodes a span word by word through a whole-word codec whose
/// encode/decode inline to a few table lookups + XORs — the whole tile
/// runs without a call, branch, or per-bit loop.
template <class Code>
void encode_words(const Code& code, std::span<const word_t> data,
                  std::span<word_t> out) {
  check_block_spans(data.size(), out.size());
  for (std::size_t i = 0; i < data.size(); ++i) out[i] = code.encode(data[i]);
}

template <class Code>
block_decode_stats decode_words(const Code& code,
                                std::span<const word_t> stored,
                                std::span<word_t> out) {
  check_block_spans(stored.size(), out.size());
  block_decode_stats stats;
  for (std::size_t i = 0; i < stored.size(); ++i) {
    const ecc_decode_result r = code.decode(stored[i]);
    out[i] = r.data;
    stats.count(r.status);
  }
  return stats;
}

read_result as_read(const ecc_decode_result& r) { return {r.data, r.status}; }

/// "family(n,k<qualifier>)", e.g. "H(39,32)" or "BCH(45,32,t=2)".
std::string code_label(const std::string& family, unsigned codeword_bits,
                       unsigned data_bits, const std::string& qualifier = "") {
  return family + "(" + std::to_string(codeword_bits) + "," +
         std::to_string(data_bits) + qualifier + ")";
}

/// Shape of a whole-word code guaranteed to correct `t` errors.
template <class Code>
scheme_shape whole_word_shape(const Code& code, const std::string& family,
                              unsigned t, const std::string& qualifier = "") {
  return {code_label(family, code.codeword_bits(), code.data_bits(),
                     qualifier) +
              " ECC",
          code.data_bits(), code.codeword_bits(), 0, t};
}

template <class Code>
const Code& checked_codec(const std::shared_ptr<const Code>& code,
                          const char* what) {
  expects(code != nullptr, what);
  return *code;
}

}  // namespace

void protection_scheme::configure(const fault_map& /*faults*/) {}

word_t protection_scheme::encode(std::uint32_t row, word_t data) const {
  word_t out = 0;
  encode_block(row, std::span<const word_t>(&data, 1),
               std::span<word_t>(&out, 1));
  return out;
}

read_result protection_scheme::decode(std::uint32_t row, word_t stored) const {
  word_t out = 0;
  const block_decode_stats stats = decode_block(
      row, std::span<const word_t>(&stored, 1), std::span<word_t>(&out, 1));
  const ecc_status status = stats.uncorrectable != 0
                                ? ecc_status::detected_uncorrectable
                            : stats.corrected != 0 ? ecc_status::corrected
                                                   : ecc_status::clean;
  return {out, status};
}

double protection_scheme::worst_case_row_cost(
    std::uint32_t row, std::span<const std::uint32_t> fault_cols) const {
  // Hoisted scratch: the yield sweeps call this for every faulty row of
  // millions of sampled maps.
  static thread_local std::vector<std::uint32_t> bits;
  bits.clear();
  residual_fault_bits(row, fault_cols, bits);
  double cost = 0.0;
  for (const std::uint32_t bit : bits) cost += squared_bit_error(bit);
  return cost;
}

// ---------------------------------------------------------------- none

none_scheme::none_scheme(unsigned width)
    : protection_scheme({"no-correction", width, width}) {
  expects(is_valid_width(width), "word width must be 1..64");
}

void none_scheme::encode_block(std::uint32_t /*first_row*/,
                               std::span<const word_t> data,
                               std::span<word_t> out) const {
  check_block_spans(data.size(), out.size());
  const word_t mask = word_mask(data_bits());
  for (std::size_t i = 0; i < data.size(); ++i) out[i] = data[i] & mask;
}

block_decode_stats none_scheme::decode_block(std::uint32_t /*first_row*/,
                                             std::span<const word_t> stored,
                                             std::span<word_t> out) const {
  check_block_spans(stored.size(), out.size());
  const word_t mask = word_mask(data_bits());
  for (std::size_t i = 0; i < stored.size(); ++i) out[i] = stored[i] & mask;
  return {};
}

word_t none_scheme::encode_reference(std::uint32_t /*row*/, word_t data) const {
  return data & word_mask(data_bits());
}

read_result none_scheme::decode_reference(std::uint32_t /*row*/,
                                          word_t stored) const {
  return {stored & word_mask(data_bits()), ecc_status::clean};
}

void none_scheme::residual_fault_bits(std::uint32_t /*row*/,
                                      std::span<const std::uint32_t> fault_cols,
                                      std::vector<std::uint32_t>& out) const {
  out.insert(out.end(), fault_cols.begin(), fault_cols.end());
}

// -------------------------------------------------------------- secded

secded_scheme::secded_scheme(unsigned width)
    : secded_scheme(hamming_secded(width)) {}

secded_scheme::secded_scheme(hamming_secded code)
    : protection_scheme(whole_word_shape(code, "H", 1)),
      code_(std::move(code)) {}

void secded_scheme::encode_block(std::uint32_t /*first_row*/,
                                 std::span<const word_t> data,
                                 std::span<word_t> out) const {
  encode_words(code_, data, out);
}

block_decode_stats secded_scheme::decode_block(std::uint32_t /*first_row*/,
                                               std::span<const word_t> stored,
                                               std::span<word_t> out) const {
  return decode_words(code_, stored, out);
}

word_t secded_scheme::encode_reference(std::uint32_t /*row*/, word_t data) const {
  return code_.encode_reference(data);
}

read_result secded_scheme::decode_reference(std::uint32_t /*row*/,
                                            word_t stored) const {
  return as_read(code_.decode_reference(stored));
}

void secded_scheme::residual_fault_bits(
    std::uint32_t /*row*/, std::span<const std::uint32_t> fault_cols,
    std::vector<std::uint32_t>& out) const {
  whole_word_residual(code_, 1, fault_cols, out);  // single errors corrected
}

// --------------------------------------------------------------- hsiao

hsiao_scheme::hsiao_scheme(unsigned width, unsigned check_bits)
    : hsiao_scheme(std::make_shared<const hsiao_code>(width, check_bits)) {}

hsiao_scheme::hsiao_scheme(std::shared_ptr<const hsiao_code> code)
    : protection_scheme(whole_word_shape(
          checked_codec(code, "hsiao_scheme needs a codec"), "Hsiao", 1)),
      code_(std::move(code)) {}

void hsiao_scheme::encode_block(std::uint32_t /*first_row*/,
                                std::span<const word_t> data,
                                std::span<word_t> out) const {
  encode_words(*code_, data, out);
}

block_decode_stats hsiao_scheme::decode_block(std::uint32_t /*first_row*/,
                                              std::span<const word_t> stored,
                                              std::span<word_t> out) const {
  return decode_words(*code_, stored, out);
}

word_t hsiao_scheme::encode_reference(std::uint32_t /*row*/, word_t data) const {
  return code_->encode_reference(data);
}

read_result hsiao_scheme::decode_reference(std::uint32_t /*row*/,
                                           word_t stored) const {
  return as_read(code_->decode_reference(stored));
}

void hsiao_scheme::residual_fault_bits(
    std::uint32_t /*row*/, std::span<const std::uint32_t> fault_cols,
    std::vector<std::uint32_t>& out) const {
  // The identity layout makes bit == column for every data column.
  whole_word_residual(*code_, 1, fault_cols, out);
}

// ----------------------------------------------------------------- bch

bch_scheme::bch_scheme(unsigned width, unsigned t)
    : bch_scheme(std::make_shared<const bch_code>(width, t)) {}

bch_scheme::bch_scheme(std::shared_ptr<const bch_code> code)
    : protection_scheme([&code] {
        const bch_code& c = checked_codec(code, "bch_scheme needs a codec");
        return whole_word_shape(c, "BCH", c.t(), ",t=" + std::to_string(c.t()));
      }()),
      code_(std::move(code)) {}

void bch_scheme::encode_block(std::uint32_t /*first_row*/,
                              std::span<const word_t> data,
                              std::span<word_t> out) const {
  encode_words(*code_, data, out);
}

block_decode_stats bch_scheme::decode_block(std::uint32_t /*first_row*/,
                                            std::span<const word_t> stored,
                                            std::span<word_t> out) const {
  return decode_words(*code_, stored, out);
}

word_t bch_scheme::encode_reference(std::uint32_t /*row*/, word_t data) const {
  return code_->encode_reference(data);
}

read_result bch_scheme::decode_reference(std::uint32_t /*row*/,
                                         word_t stored) const {
  return as_read(code_->decode_reference(stored));
}

void bch_scheme::residual_fault_bits(std::uint32_t /*row*/,
                                     std::span<const std::uint32_t> fault_cols,
                                     std::vector<std::uint32_t>& out) const {
  // Up to t faults are corrected wherever they land. Beyond that the
  // parity extension guarantees detection (never miscorrection) at
  // t+1 faults, so the raw-pass-through model is *exact* there —
  // urmem-verify proves this by enumeration.
  whole_word_residual(*code_, code_->t(), fault_cols, out);
}

// ---------------------------------------------------------------- pecc

pecc_scheme::pecc_scheme(unsigned width, unsigned protected_bits)
    : pecc_scheme(priority_ecc(width, protected_bits)) {}

pecc_scheme::pecc_scheme(priority_ecc codec)
    : protection_scheme({code_label("H", codec.inner_code().codeword_bits(),
                                    codec.inner_code().data_bits()) +
                             " P-ECC",
                         codec.word_bits(), codec.storage_bits()}),
      codec_(std::move(codec)) {}

void pecc_scheme::encode_block(std::uint32_t /*first_row*/,
                               std::span<const word_t> data,
                               std::span<word_t> out) const {
  encode_words(codec_, data, out);
}

block_decode_stats pecc_scheme::decode_block(std::uint32_t /*first_row*/,
                                             std::span<const word_t> stored,
                                             std::span<word_t> out) const {
  return decode_words(codec_, stored, out);
}

word_t pecc_scheme::encode_reference(std::uint32_t /*row*/, word_t data) const {
  return codec_.encode_reference(data);
}

read_result pecc_scheme::decode_reference(std::uint32_t /*row*/,
                                          word_t stored) const {
  return as_read(codec_.decode_reference(stored));
}

void pecc_scheme::residual_fault_bits(std::uint32_t /*row*/,
                                      std::span<const std::uint32_t> fault_cols,
                                      std::vector<std::uint32_t>& out) const {
  std::size_t protected_faults = 0;
  for (const std::uint32_t col : fault_cols) {
    if (codec_.is_protected_column(col)) ++protected_faults;
  }
  for (const std::uint32_t col : fault_cols) {
    if (codec_.is_protected_column(col)) {
      if (protected_faults <= 1) continue;  // corrected by the inner code
      const int bit = codec_.data_bit_at_column(col);
      if (bit >= 0) out.push_back(static_cast<std::uint32_t>(bit));
    } else {
      // Unprotected low-order bit: error magnitude 2^col, col < u.
      out.push_back(col);
    }
  }
}

// ------------------------------------------------------------- shuffle

shuffle_protection::shuffle_protection(std::uint32_t rows, unsigned width,
                                       unsigned n_fm, shift_policy policy)
    : protection_scheme({"nFM=" + std::to_string(n_fm), width, width, n_fm}),
      impl_(rows, width, n_fm, policy),
      policy_(policy) {}

void shuffle_protection::configure(const fault_map& faults) { impl_.program(faults); }

void shuffle_protection::encode_block(std::uint32_t first_row,
                                      std::span<const word_t> data,
                                      std::span<word_t> out) const {
  impl_.apply_write_block(first_row, data, out);
}

block_decode_stats shuffle_protection::decode_block(std::uint32_t first_row,
                                                    std::span<const word_t> stored,
                                                    std::span<word_t> out) const {
  impl_.restore_read_block(first_row, stored, out);
  return {};  // shuffling neither corrects nor detects — always clean
}

word_t shuffle_protection::encode_reference(std::uint32_t row,
                                            word_t data) const {
  return impl_.apply_write(row, data);
}

read_result shuffle_protection::decode_reference(std::uint32_t row,
                                                 word_t stored) const {
  return {impl_.restore_read(row, stored), ecc_status::clean};
}

void shuffle_protection::residual_fault_bits(
    std::uint32_t /*row*/, std::span<const std::uint32_t> fault_cols,
    std::vector<std::uint32_t>& out) const {
  if (fault_cols.empty()) return;
  const unsigned xfm = choose_xfm(impl_.shuffler(), fault_cols, policy_);
  for (const std::uint32_t col : fault_cols) {
    out.push_back(impl_.shuffler().logical_position(col, xfm));
  }
}

// ------------------------------------------------------------ factories

std::unique_ptr<protection_scheme> make_scheme_none(unsigned width) {
  return std::make_unique<none_scheme>(width);
}

std::unique_ptr<protection_scheme> make_scheme_secded(unsigned width) {
  return std::make_unique<secded_scheme>(width);
}

std::unique_ptr<protection_scheme> make_scheme_pecc(unsigned width,
                                                    unsigned protected_bits) {
  return std::make_unique<pecc_scheme>(width, protected_bits);
}

std::unique_ptr<protection_scheme> make_scheme_shuffle(std::uint32_t rows,
                                                       unsigned width, unsigned n_fm,
                                                       shift_policy policy) {
  return std::make_unique<shuffle_protection>(rows, width, n_fm, policy);
}

std::unique_ptr<protection_scheme> make_scheme_hsiao(unsigned width,
                                                     unsigned check_bits) {
  return std::make_unique<hsiao_scheme>(width, check_bits);
}

std::unique_ptr<protection_scheme> make_scheme_bch(unsigned width, unsigned t) {
  return std::make_unique<bch_scheme>(width, t);
}

}  // namespace urmem
