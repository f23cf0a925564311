// Cross-module property suites: invariants that must hold for every
// protection scheme, fault pattern, and data word — the contracts the
// yield analytics (Eq. 6) rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "urmem/memory/fault_sampler.hpp"
#include "urmem/scheme/protected_memory.hpp"
#include "urmem/scheme/protection_scheme.hpp"

namespace urmem {
namespace {

/// Scheme factories under test, with the per-row fault-count cap below
/// which the scheme's analytic model is exact (SECDED guarantees break
/// at 3+ errors per codeword, where miscorrection becomes possible).
struct scheme_case {
  std::string name;
  std::function<std::unique_ptr<protection_scheme>(std::uint32_t)> make;
  std::uint32_t exact_fault_cap;
};

std::vector<scheme_case> all_schemes() {
  std::vector<scheme_case> cases;
  cases.push_back({"none", [](std::uint32_t) { return make_scheme_none(); },
                   ~0u});
  cases.push_back({"secded", [](std::uint32_t) { return make_scheme_secded(); },
                   2u});
  cases.push_back({"pecc", [](std::uint32_t) { return make_scheme_pecc(); }, 2u});
  for (unsigned n_fm = 1; n_fm <= 5; ++n_fm) {
    cases.push_back({"nFM=" + std::to_string(n_fm),
                     [n_fm](std::uint32_t rows) {
                       return make_scheme_shuffle(rows, 32, n_fm);
                     },
                     ~0u});
  }
  return cases;
}

class SchemeProperty : public ::testing::TestWithParam<std::size_t> {
 protected:
  [[nodiscard]] const scheme_case& scheme() const {
    static const std::vector<scheme_case> cases = all_schemes();
    return cases[GetParam()];
  }
};

/// Property 1: for any fault map within the scheme's exactness cap and
/// any stored data, the per-row Eq. 6 cost of the bits that actually
/// flipped never exceeds the scheme's worst_case_row_cost — the
/// analytic model is a true upper bound.
TEST_P(SchemeProperty, WorstCaseRowCostBoundsEmpiricalFlips) {
  const scheme_case& c = scheme();
  rng gen(GetParam() * 7 + 1);
  const std::uint32_t rows = 64;

  for (int trial = 0; trial < 40; ++trial) {
    auto scheme_instance = c.make(rows);
    protected_memory memory(rows, std::move(scheme_instance));
    const array_geometry geometry = memory.storage_geometry();

    // Random fault map capped per row.
    fault_map faults(geometry);
    std::vector<std::uint32_t> per_row(rows, 0);
    const std::uint64_t n = 1 + gen.uniform_below(40);
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto row = static_cast<std::uint32_t>(gen.uniform_below(rows));
      if (per_row[row] >= std::min<std::uint32_t>(c.exact_fault_cap, 4)) continue;
      ++per_row[row];
      faults.add({row, static_cast<std::uint32_t>(gen.uniform_below(geometry.width)),
                  fault_kind::flip});
    }

    std::vector<std::vector<std::uint32_t>> cols_of(rows);
    for (const fault& f : faults.all_faults()) cols_of[f.row].push_back(f.col);
    memory.set_fault_map(std::move(faults));

    for (std::uint32_t row = 0; row < rows; ++row) {
      if (cols_of[row].empty()) continue;
      const word_t data = gen() & word_mask(32);
      memory.write(row, data);
      const word_t diff = memory.read(row).data ^ data;
      double empirical = 0.0;
      for (unsigned bit = 0; bit < 32; ++bit) {
        if (get_bit(diff, bit)) empirical += std::ldexp(1.0, 2 * static_cast<int>(bit));
      }
      const double predicted =
          memory.scheme().worst_case_row_cost(row, cols_of[row]);
      EXPECT_LE(empirical, predicted + 1e-9)
          << c.name << " row=" << row << " trial=" << trial;
    }
  }
}

/// Property 2: decode(encode(x)) == x on a fault-free array, and the
/// status is clean, for random data.
TEST_P(SchemeProperty, FaultFreeIdentity) {
  const scheme_case& c = scheme();
  rng gen(GetParam() * 13 + 2);
  const std::uint32_t rows = 16;
  protected_memory memory(rows, c.make(rows));
  for (std::uint32_t row = 0; row < rows; ++row) {
    const word_t data = gen() & word_mask(32);
    memory.write(row, data);
    const read_result r = memory.read(row);
    EXPECT_EQ(r.data, data) << c.name;
    EXPECT_EQ(r.status, ecc_status::clean) << c.name;
  }
}

/// Property 3: worst_case_row_cost is monotone under adding faults —
/// more faulty columns can never reduce the worst-case cost.
TEST_P(SchemeProperty, RowCostMonotoneInFaults) {
  const scheme_case& c = scheme();
  rng gen(GetParam() * 17 + 3);
  const auto scheme_instance = c.make(64);
  const unsigned width = scheme_instance->storage_bits();
  // SECDED/P-ECC costs legitimately drop from 1 fault (corrected, cost 0
  // stays 0 -> increases at 2); monotonicity holds from 2 faults upward.
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint32_t> cols;
    const unsigned start = 2;
    for (unsigned i = 0; i < start; ++i) {
      cols.push_back(static_cast<std::uint32_t>(gen.uniform_below(width)));
    }
    double prev = scheme_instance->worst_case_row_cost(0, cols);
    for (unsigned extra = 0; extra < 3; ++extra) {
      cols.push_back(static_cast<std::uint32_t>(gen.uniform_below(width)));
      const double cur = scheme_instance->worst_case_row_cost(0, cols);
      EXPECT_GE(cur, prev - 1e-9) << c.name;
      prev = cur;
    }
  }
}

/// Property 4: costs are permutation-invariant in the fault column list.
TEST_P(SchemeProperty, RowCostPermutationInvariant) {
  const scheme_case& c = scheme();
  rng gen(GetParam() * 19 + 4);
  const auto scheme_instance = c.make(64);
  const unsigned width = scheme_instance->storage_bits();
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint32_t> cols;
    for (int i = 0; i < 4; ++i) {
      cols.push_back(static_cast<std::uint32_t>(gen.uniform_below(width)));
    }
    const double forward = scheme_instance->worst_case_row_cost(0, cols);
    std::reverse(cols.begin(), cols.end());
    EXPECT_DOUBLE_EQ(scheme_instance->worst_case_row_cost(0, cols), forward)
        << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeProperty,
                         ::testing::Range<std::size_t>(0, 8),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           static const std::vector<scheme_case> cases =
                               all_schemes();
                           std::string name = cases[info.param].name;
                           for (char& ch : name) {
                             if (!std::isalnum(static_cast<unsigned char>(ch))) {
                               ch = '_';
                             }
                           }
                           return name;
                         });

/// Property 5: the Eq. 6 bound holds for *every* physical fault kind,
/// not just deterministic flips — stuck-at and transition faults can
/// only corrupt a subset of the always-flip positions.
TEST_P(SchemeProperty, BoundHoldsUnderMixedPhysicalFaultKinds) {
  const scheme_case& c = scheme();
  rng gen(GetParam() * 23 + 5);
  const std::uint32_t rows = 64;
  auto scheme_instance = c.make(rows);
  protected_memory memory(rows, std::move(scheme_instance));
  const array_geometry geometry = memory.storage_geometry();

  fault_map faults(geometry);
  std::vector<std::vector<std::uint32_t>> cols_of(rows);
  for (std::uint32_t row = 0; row < rows; ++row) {
    if ((row % 3) == 2) continue;  // leave some rows clean
    const auto col = static_cast<std::uint32_t>(gen.uniform_below(geometry.width));
    const auto kind = static_cast<fault_kind>(gen.uniform_below(5));
    faults.add({row, col, kind});
    cols_of[row].push_back(col);
  }
  memory.set_fault_map(std::move(faults));

  for (std::uint32_t row = 0; row < rows; ++row) {
    if (cols_of[row].empty()) continue;
    const word_t data = gen() & word_mask(32);
    memory.write(row, data);
    const word_t diff = memory.read(row).data ^ data;
    double empirical = 0.0;
    for (unsigned bit = 0; bit < 32; ++bit) {
      if (get_bit(diff, bit)) empirical += std::ldexp(1.0, 2 * static_cast<int>(bit));
    }
    EXPECT_LE(empirical,
              memory.scheme().worst_case_row_cost(row, cols_of[row]) + 1e-9)
        << c.name << " row=" << row;
  }
}

/// SECDED beyond its guarantee: with 3 raw bit errors the decoder may
/// miscorrect (flip a 4th position). Document the behaviour the
/// analytic model deliberately excludes.
TEST(SecdedBeyondGuarantee, TripleErrorsMayMiscorrectButNeverCrash) {
  const hamming_secded code(32);
  rng gen(5);
  int miscorrections = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const word_t data = gen() & word_mask(32);
    word_t cw = code.encode(data);
    // Three distinct flip positions.
    unsigned a = static_cast<unsigned>(gen.uniform_below(39));
    unsigned b = (a + 1 + static_cast<unsigned>(gen.uniform_below(38))) % 39;
    unsigned c = 0;
    do {
      c = static_cast<unsigned>(gen.uniform_below(39));
    } while (c == a || c == b);
    const ecc_decode_result r = code.decode(flip_bit(flip_bit(flip_bit(cw, a), b), c));
    if (r.status == ecc_status::corrected && r.data != data) ++miscorrections;
  }
  // Odd-weight errors alias to single-error syndromes most of the time.
  EXPECT_GT(miscorrections, 0);
}

}  // namespace
}  // namespace urmem
