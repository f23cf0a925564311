#include "urmem/lifecycle/lifecycle_manager.hpp"

#include <utility>

#include "urmem/common/contracts.hpp"

namespace urmem {

std::string_view to_string(degrade_policy policy) {
  switch (policy) {
    case degrade_policy::mark: return "mark";
    case degrade_policy::remap: return "remap";
    case degrade_policy::failstop: return "failstop";
  }
  return "?";
}

std::optional<degrade_policy> parse_degrade_policy(std::string_view name) {
  if (name == "mark") return degrade_policy::mark;
  if (name == "remap") return degrade_policy::remap;
  if (name == "failstop") return degrade_policy::failstop;
  return std::nullopt;
}

lifecycle_counters& lifecycle_counters::operator+=(
    const lifecycle_counters& other) {
  epochs += other.epochs;
  injected_faults += other.injected_faults;
  scrub_passes += other.scrub_passes;
  rows_scrubbed += other.rows_scrubbed;
  corrected_rewrites += other.corrected_rewrites;
  ce_retirements += other.ce_retirements;
  ue_detected += other.ue_detected;
  read_retries += other.read_retries;
  retry_successes += other.retry_successes;
  ue_retirements += other.ue_retirements;
  pool_exhausted += other.pool_exhausted;
  cross_region_remaps += other.cross_region_remaps;
  marked_rows += other.marked_rows;
  failstops += other.failstops;
  return *this;
}

lifecycle_manager::lifecycle_manager(protected_memory& memory,
                                     fault_timeline timeline,
                                     scrub_config scrub, retire_config retire)
    : memory_(memory),
      timeline_(std::move(timeline)),
      scrubber_(scrub),
      retire_(retire),
      marked_(memory.rows(), false) {
  expects(timeline_.geometry() == memory.storage_geometry(),
          "timeline geometry must match the memory's storage geometry");
  expects(retire.reliable_region < memory.regions().size(),
          "retire.reliable_region out of range");
}

bool lifecycle_manager::step() {
  if (!advance_epoch()) return false;
  if (!scrub_due()) return true;
  findings_.clear();
  run_scrub_pass(findings_);
  return apply_findings(findings_);
}

bool lifecycle_manager::advance_epoch() {
  if (failed_) return false;
  counters_.injected_faults += timeline_.advance();
  // In-place map swap: remaps, stored data and the scheme configuration
  // all survive — only the injected reality moves.
  memory_.update_fault_map(timeline_.current());
  ++counters_.epochs;
  return true;
}

bool lifecycle_manager::scrub_due() const {
  return scrubber_.due(timeline_.epoch());
}

scrub_pass_stats lifecycle_manager::run_scrub_pass(
    std::vector<scrub_finding>& findings, const scrub_hooks* hooks) {
  const scrub_pass_stats stats = scrubber_.pass(memory_, findings, hooks);
  ++counters_.scrub_passes;
  counters_.rows_scrubbed += stats.rows_scanned;
  counters_.corrected_rewrites += stats.corrected_rewrites;
  return stats;
}

bool lifecycle_manager::apply_findings(
    const std::vector<scrub_finding>& findings) {
  if (failed_) return false;
  for (const scrub_finding& finding : findings) {
    // Marked rows are known-corrupt and deliberately served as-is; no
    // spare or retry is spent on them again.
    if (marked_[finding.row]) continue;
    if (finding.correctable) {
      retire_correctable(finding.row, finding.result.data);
    } else {
      handle_uncorrectable(finding.row, finding.result.data);
      if (failed_) return false;
    }
  }
  return true;
}

void lifecycle_manager::retire_correctable(std::uint32_t row, word_t data) {
  if (!scrubber_.config().retire_correctable) return;
  const word_t payload = data_source_ ? data_source_(row) : data;
  // A pool-dry correctable row is benign: it keeps being rewritten in
  // place by later passes, so no counter marks the miss.
  if (memory_.retire_row(row, payload)) ++counters_.ce_retirements;
}

void lifecycle_manager::handle_uncorrectable(std::uint32_t row, word_t data) {
  ++counters_.ue_detected;
  // Raw retries through the intermittent model: the pristine stored
  // codeword re-corrupted with re-rolled intermittent activity. A retry
  // decodes exactly when the offending cell sat out that attempt.
  const std::uint32_t physical = memory_.physical_row_of(row);
  const word_t stored = memory_.raw_storage_word(row);
  for (std::uint32_t attempt = 1; attempt <= retire_.max_retries; ++attempt) {
    ++counters_.read_retries;
    const word_t raw = timeline_.corrupt_read(physical, stored, attempt);
    const read_result retried = memory_.decode_stored(row, raw);
    if (retried.status == ecc_status::detected_uncorrectable) continue;
    ++counters_.retry_successes;
    // The data survived after all: restore the codeword and treat the
    // row like a flagged correctable one.
    memory_.write(row, data_source_ ? data_source_(row) : retried.data);
    retire_correctable(row, retried.data);
    return;
  }
  // Hard uncorrectable. `data` (the decoder's best estimate — or the
  // installed data source's authoritative word) is what moves; in the
  // standalone study whatever bits the faults destroyed are gone
  // either way.
  const word_t payload = data_source_ ? data_source_(row) : data;
  if (memory_.retire_row(row, payload)) {
    ++counters_.ue_retirements;
    return;
  }
  ++counters_.pool_exhausted;
  switch (retire_.policy) {
    case degrade_policy::remap:
      if (memory_.retire_row_to_region(row, retire_.reliable_region, payload)) {
        ++counters_.ue_retirements;
        ++counters_.cross_region_remaps;
        return;
      }
      [[fallthrough]];  // the reliable pool is dry too: degrade to mark
    case degrade_policy::mark:
      marked_[row] = true;
      ++counters_.marked_rows;
      return;
    case degrade_policy::failstop:
      failed_ = true;
      failstop_epoch_ = timeline_.epoch();
      ++counters_.failstops;
      return;
  }
}

}  // namespace urmem
