#include "service/request.hpp"

#include <cctype>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"
#include "graph/topologies.hpp"

namespace a2a::service {

DiGraph build_topology(const TopologySpec& spec) {
  Rng rng(spec.seed);
  if (spec.topology == "torus3d") {
    std::vector<int> dims;
    std::stringstream ss(spec.dims);
    std::string token;
    while (std::getline(ss, token, 'x')) dims.push_back(std::stoi(token));
    return make_torus(dims);
  }
  if (spec.topology == "torus2d") return make_torus_2d(spec.nodes);
  if (spec.topology == "hypercube") return make_hypercube(spec.dim);
  if (spec.topology == "twisted") return make_twisted_hypercube(spec.dim);
  if (spec.topology == "bipartite") {
    return make_complete_bipartite(spec.nodes / 2,
                                   spec.nodes - spec.nodes / 2);
  }
  if (spec.topology == "ring") return make_ring(spec.nodes);
  if (spec.topology == "genkautz") {
    return make_generalized_kautz(spec.nodes, spec.degree);
  }
  if (spec.topology == "debruijn") return make_de_bruijn(2, spec.dim);
  if (spec.topology == "xpander") {
    return make_xpander(spec.degree, spec.nodes / (spec.degree + 1), rng);
  }
  if (spec.topology == "randomregular") {
    return make_random_regular(spec.nodes, spec.degree, rng);
  }
  if (spec.topology == "dragonfly") {
    return make_dragonfly(spec.degree + 1, spec.degree, 1);
  }
  throw InvalidArgument("unknown topology: " + spec.topology);
}

Fabric build_fabric(const std::string& name) {
  if (name == "cerio") return hpc_cerio_fabric();
  if (name == "gpu") return gpu_mscl_fabric();
  if (name == "oneccl") return cpu_oneccl_fabric();
  throw InvalidArgument("unknown fabric: " + name);
}

namespace {

/// Percent-decodes one query component ('+' is a space, %XX a byte).
std::string url_decode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '+') {
      out.push_back(' ');
    } else if (c == '%' && i + 2 < s.size()) {
      const auto hex = [](char h) -> int {
        if (h >= '0' && h <= '9') return h - '0';
        if (h >= 'a' && h <= 'f') return h - 'a' + 10;
        if (h >= 'A' && h <= 'F') return h - 'A' + 10;
        return -1;
      };
      const int hi = hex(s[i + 1]), lo = hex(s[i + 2]);
      A2A_REQUIRE(hi >= 0 && lo >= 0, "bad percent-escape in query");
      out.push_back(static_cast<char>(hi * 16 + lo));
      i += 2;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

int parse_int(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const int v = std::stoi(value, &used);
    A2A_REQUIRE(used == value.size(), "trailing junk");
    return v;
  } catch (const InvalidArgument&) {
    throw;
  } catch (const std::exception&) {
    throw InvalidArgument("bad integer for '" + key + "': " + value);
  }
}

/// Percent-encodes one query component: every byte but letters, digits and
/// "-._~:" becomes %XX, so a value holding '&', '=', '%' or '+' cannot be
/// read back as another key.
std::string url_encode(std::string_view s) {
  static constexpr char kDigits[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (std::isalnum(u) || c == '-' || c == '.' || c == '_' || c == '~' ||
        c == ':') {
      out.push_back(c);
    } else {
      out.push_back('%');
      out.push_back(kDigits[u >> 4]);
      out.push_back(kDigits[u & 0xF]);
    }
  }
  return out;
}

double parse_double(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const double v = std::stod(value, &used);
    A2A_REQUIRE(used == value.size(), "trailing junk");
    return v;
  } catch (const InvalidArgument&) {
    throw;
  } catch (const std::exception&) {
    throw InvalidArgument("bad number for '" + key + "': " + value);
  }
}

}  // namespace

ServiceRequest parse_service_request(std::string_view query) {
  ServiceRequest request;
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string_view::npos) amp = query.size();
    const std::string_view pair = query.substr(pos, amp - pos);
    pos = amp + 1;
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    A2A_REQUIRE(eq != std::string_view::npos,
                "query parameter without '=': ", std::string(pair));
    const std::string key = url_decode(pair.substr(0, eq));
    const std::string value = url_decode(pair.substr(eq + 1));
    if (key == "topology") request.spec.topology = value;
    else if (key == "dims") request.spec.dims = value;
    else if (key == "nodes") request.spec.nodes = parse_int(key, value);
    else if (key == "degree") request.spec.degree = parse_int(key, value);
    else if (key == "dim") request.spec.dim = parse_int(key, value);
    else if (key == "seed") {
      request.spec.seed =
          static_cast<std::uint64_t>(parse_double(key, value));
    }
    else if (key == "fabric") request.fabric = value;
    else if (key == "deadline_ms") {
      request.deadline_ms = parse_double(key, value);
    }
    else if (key == "trace") request.trace = parse_int(key, value) != 0;
    else if (key == "path_diversity_threshold") {
      request.options.path_diversity_threshold = parse_int(key, value);
    }
    else if (key == "exact_tsmcf_limit") {
      request.options.exact_tsmcf_limit = parse_int(key, value);
    }
    else if (key == "vc_max_layers_warn") {
      request.options.vc_max_layers_warn = parse_int(key, value);
    }
    else if (key == "collective") {
      request.options.workload.collective = collective_from_name(value);
    }
    else if (key == "demand") {
      request.options.workload.demand = DemandSpec::parse(value);
    }
    else {
      throw InvalidArgument("unknown query parameter: " + key);
    }
  }
  return request;
}

std::string canonical_query(const ServiceRequest& request) {
  const ServiceRequest defaults;
  std::ostringstream os;
  const char* sep = "";
  const auto emit = [&](const char* key, const std::string& value) {
    os << sep << key << '=' << url_encode(value);
    sep = "&";
  };
  // Alphabetical, defaults elided — a stable, minimal query.
  if (request.options.workload.collective !=
      defaults.options.workload.collective) {
    emit("collective", collective_name(request.options.workload.collective));
  }
  if (request.deadline_ms != defaults.deadline_ms) {
    emit("deadline_ms", std::to_string(request.deadline_ms));
  }
  if (request.options.workload.demand != defaults.options.workload.demand) {
    emit("demand", request.options.workload.demand.to_string());
  }
  if (request.spec.degree != defaults.spec.degree) {
    emit("degree", std::to_string(request.spec.degree));
  }
  if (request.spec.dim != defaults.spec.dim) {
    emit("dim", std::to_string(request.spec.dim));
  }
  if (request.spec.dims != defaults.spec.dims) emit("dims", request.spec.dims);
  if (request.options.exact_tsmcf_limit != defaults.options.exact_tsmcf_limit) {
    emit("exact_tsmcf_limit",
         std::to_string(request.options.exact_tsmcf_limit));
  }
  if (request.fabric != defaults.fabric) emit("fabric", request.fabric);
  if (request.spec.nodes != defaults.spec.nodes) {
    emit("nodes", std::to_string(request.spec.nodes));
  }
  if (request.options.path_diversity_threshold !=
      defaults.options.path_diversity_threshold) {
    emit("path_diversity_threshold",
         std::to_string(request.options.path_diversity_threshold));
  }
  if (request.spec.seed != defaults.spec.seed) {
    emit("seed", std::to_string(request.spec.seed));
  }
  if (request.spec.topology != defaults.spec.topology) {
    emit("topology", request.spec.topology);
  }
  if (request.trace) emit("trace", "1");
  if (request.options.vc_max_layers_warn !=
      defaults.options.vc_max_layers_warn) {
    emit("vc_max_layers_warn",
         std::to_string(request.options.vc_max_layers_warn));
  }
  return os.str();
}

}  // namespace a2a::service
