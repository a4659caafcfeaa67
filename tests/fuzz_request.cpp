// Structure-aware fuzz harness for the schedule service's request
// vocabulary, in fuzz_schedbin's style: draw queries over the 14 keys whose
// values are valid ones or mutations of them (signs, '+', blanks, trailing
// junk, leading zeros, hex, inf/nan, the 2^31, 2^63 and 2^64 boundaries,
// fractions, percent-escapes, empty values), then assert:
//   * parse_service_request returns or throws InvalidArgument, nothing else;
//   * a parsed request's canonical_query parses back to the same canonical
//     query;
//   * for every schedule key, set_schedule_key (schedgen's flags) and the
//     query set the same fields.
// It never builds a topology: a fuzzed size could ask for any graph.
//
// Runs as ctest `fuzz_request`: fixed seed, 20k draws, well under a second.
// A2A_FUZZ_ITERS overrides the draw count for longer soak runs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"
#include "service/request.hpp"

namespace a2a {
namespace {

using service::ServiceRequest;

struct Key {
  const char* name;
  std::vector<std::string> valid;
};

const std::vector<Key>& vocabulary() {
  static const std::vector<Key> keys = {
      {"topology", {"torus3d", "genkautz", "ring", "randomregular", "nosuch"}},
      {"dims", {"3x3x3", "3x3x2", "4x4", "axb"}},
      {"nodes", {"8", "27", "64"}},
      {"degree", {"3", "4"}},
      {"dim", {"3", "5"}},
      {"seed", {"1", "9007199254740993", "18446744073709551615"}},
      {"fabric", {"cerio", "gpu", "oneccl"}},
      {"deadline_ms", {"0", "250", "0.5", "1e300"}},
      {"trace", {"0", "1"}},
      {"path_diversity_threshold", {"512", "3000000000"}},
      {"exact_tsmcf_limit", {"14", "0"}},
      {"vc_max_layers_warn", {"4", "-1"}},
      {"collective", {"a2a", "rs", "ag", "allreduce", "reduce-scatter"}},
      {"demand",
       {"uniform", "zipf:0.6", "zipf:1.2", "perm", "perm:5",
        "perm:18446744073709551615", "block:3"}},
  };
  return keys;
}

bool is_schedule_key(const std::string& key) {
  return key != "deadline_ms" && key != "trace";
}

std::string mutate_number(std::string v, Rng& rng) {
  static const char* const kReplacements[] = {
      "",  "inf", "-inf", "nan", "infinity", "0x1F", "0x",
      "2147483647", "2147483648", "-2147483648", "-2147483649",
      "9223372036854775807", "9223372036854775808",
      "18446744073709551615", "18446744073709551616", "-0", "1e309"};
  switch (rng.next_int(0, 9)) {
    case 0: return "-" + v;
    case 1: return "+" + v;
    case 2: return rng.next_int(0, 2) == 0 ? " " + v : v + "\t";
    case 3: return v + (rng.next_int(0, 2) == 0 ? "x" : "junk");
    case 4: return "00" + v;
    case 5: return v + (rng.next_int(0, 2) == 0 ? ".5" : ".0");
    case 6: return v + "e2";
    default:
      return kReplacements[rng.next_below(std::size(kReplacements))];
  }
}

/// A value for `key`: valid most of the time, else a mutation (of the
/// demand spec's argument, for demand).
std::string draw_value(const Key& key, Rng& rng) {
  std::string v = key.valid[rng.next_below(key.valid.size())];
  if (rng.next_int(0, 3) != 0) return v;
  if (std::string(key.name) == "demand") {
    const std::size_t colon = v.find(':');
    if (colon != std::string::npos) {
      return v.substr(0, colon + 1) + mutate_number(v.substr(colon + 1), rng);
    }
  }
  return mutate_number(v, rng);
}

/// Encodes a query component the way a client might: reserved bytes only,
/// every byte, or with ' ' as '+'. Each decodes back to `s` exactly.
std::string encode(const std::string& s, Rng& rng) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  const int style = rng.next_int(0, 3);
  std::string out;
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    const bool reserved = c == '&' || c == '=' || c == '%' || c == '+' ||
                          c == ' ' || u < 0x20 || u >= 0x7F;
    if (style == 2 && c == ' ') {
      out.push_back('+');
    } else if (reserved || style == 1) {
      out.push_back('%');
      out.push_back(kHex[u >> 4]);
      out.push_back(kHex[u & 0xF]);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void expect_same_schedule_fields(const ServiceRequest& a,
                                 const ServiceRequest& b,
                                 const std::string& context) {
  EXPECT_EQ(a.spec.topology, b.spec.topology) << context;
  EXPECT_EQ(a.spec.dims, b.spec.dims) << context;
  EXPECT_EQ(a.spec.nodes, b.spec.nodes) << context;
  EXPECT_EQ(a.spec.degree, b.spec.degree) << context;
  EXPECT_EQ(a.spec.dim, b.spec.dim) << context;
  EXPECT_EQ(a.spec.seed, b.spec.seed) << context;
  EXPECT_EQ(a.fabric, b.fabric) << context;
  EXPECT_EQ(a.options.workload, b.options.workload) << context;
  EXPECT_EQ(a.options.path_diversity_threshold,
            b.options.path_diversity_threshold) << context;
  EXPECT_EQ(a.options.exact_tsmcf_limit, b.options.exact_tsmcf_limit)
      << context;
  EXPECT_EQ(a.options.vc_max_layers_warn, b.options.vc_max_layers_warn)
      << context;
}

/// Property 1: returns or throws InvalidArgument. nullopt on a rejection.
std::optional<ServiceRequest> parse_or_reject(const std::string& query) {
  try {
    return service::parse_service_request(query);
  } catch (const InvalidArgument&) {
    return std::nullopt;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "query '" << query << "' leaked a non-a2a error: "
                  << e.what();
    return std::nullopt;
  }
}

TEST(FuzzRequest, VocabularyParsesStrictlyAndOneWay) {
  long iterations = 20000;
  if (const char* env = std::getenv("A2A_FUZZ_ITERS")) {
    iterations = std::atol(env);
  }
  ASSERT_EQ(vocabulary().size(), 14u);
  Rng rng(0x5E21CE5EEDULL);
  long parsed = 0;
  long rejected = 0;
  for (long iter = 0; iter < iterations; ++iter) {
    std::vector<std::pair<std::string, std::string>> pairs;
    const int n = rng.next_int(1, 6);
    for (int k = 0; k < n; ++k) {
      const Key& key = vocabulary()[rng.next_below(vocabulary().size())];
      pairs.emplace_back(key.name, draw_value(key, rng));
    }
    if (rng.next_int(0, 50) == 0) pairs.emplace_back("bogus", "1");
    std::string query;
    std::string schedule_query;
    for (const auto& [key, value] : pairs) {
      const std::string pair = encode(key, rng) + "=" + encode(value, rng);
      query += (query.empty() ? "" : "&") + pair;
      if (is_schedule_key(key)) {
        schedule_query += (schedule_query.empty() ? "" : "&") + pair;
      }
    }
    const std::string context = "iteration " + std::to_string(iter) +
                                ", query '" + query + "'";

    const std::optional<ServiceRequest> request = parse_or_reject(query);
    if (request) {
      ++parsed;
      // Property 2: the canonical query is a fixed point of parse.
      const std::string canonical = service::canonical_query(*request);
      const std::optional<ServiceRequest> again = parse_or_reject(canonical);
      ASSERT_TRUE(again.has_value()) << context << ", canonical '"
                                     << canonical << "'";
      EXPECT_EQ(service::canonical_query(*again), canonical) << context;
    } else {
      ++rejected;
    }

    // Property 3: the schedule keys set through the flags' setter and
    // through a query agree, value by value, accepted or rejected alike.
    ServiceRequest flags;
    bool flags_ok = true;
    for (const auto& [key, value] : pairs) {
      try {
        const bool known = service::set_schedule_key(flags, key, value);
        EXPECT_EQ(known, is_schedule_key(key) && key != "bogus") << context;
        if (!known && is_schedule_key(key)) {
          flags_ok = false;
          break;
        }
      } catch (const InvalidArgument&) {
        flags_ok = false;
        break;
      }
    }
    const std::optional<ServiceRequest> from_query =
        parse_or_reject(schedule_query);
    ASSERT_EQ(flags_ok, from_query.has_value()) << context;
    if (flags_ok) {
      expect_same_schedule_fields(flags, *from_query, context);
      EXPECT_EQ(service::canonical_query(flags),
                service::canonical_query(*from_query)) << context;
    }
    if (::testing::Test::HasFailure()) break;
  }
  // Neither so tame that nothing is rejected nor so wild that nothing parses.
  EXPECT_GT(parsed, iterations / 10);
  EXPECT_GT(rejected, iterations / 10);
  std::cout << "fuzz_request: " << iterations << " queries, " << parsed
            << " parsed, " << rejected << " rejected cleanly\n";
}

}  // namespace
}  // namespace a2a
