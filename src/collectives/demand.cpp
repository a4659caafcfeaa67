#include "collectives/demand.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace a2a {

DemandMatrix::DemandMatrix(int num_terminals, double fill) : n_(num_terminals) {
  A2A_REQUIRE(num_terminals >= 0, "negative terminal count");
  A2A_REQUIRE(fill >= 0.0, "negative demand weight");
  weights_.assign(
      static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_), fill);
  for (int i = 0; i < n_; ++i) set(i, i, 0.0);
}

void DemandMatrix::set(int si, int di, double w) {
  A2A_REQUIRE(si >= 0 && si < n_ && di >= 0 && di < n_,
              "demand index out of range");
  A2A_REQUIRE(w >= 0.0 && std::isfinite(w), "demand weight must be >= 0");
  A2A_REQUIRE(si != di || w == 0.0, "diagonal demand must be zero");
  weights_[static_cast<std::size_t>(si) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(di)] = w;
}

DemandMatrix DemandMatrix::uniform(int num_terminals) {
  return DemandMatrix(num_terminals, 1.0);
}

DemandMatrix DemandMatrix::zipf(int num_terminals, double s) {
  A2A_REQUIRE(s >= 0.0 && std::isfinite(s), "zipf exponent must be >= 0");
  // s == 0 must reproduce uniform() exactly (every z_r == 1, so the
  // normalization below is 1.0 bit-for-bit); go through the same path.
  DemandMatrix m(num_terminals, 0.0);
  const int n = num_terminals;
  if (n <= 1) return m;
  std::vector<double> z(static_cast<std::size_t>(n));
  double sum = 0.0;
  for (int r = 0; r < n; ++r) {
    z[static_cast<std::size_t>(r)] = std::pow(static_cast<double>(r + 1), -s);
    sum += z[static_cast<std::size_t>(r)];
  }
  for (int r = 0; r < n; ++r) {
    const double w = z[static_cast<std::size_t>(r)] *
                     (static_cast<double>(n) / sum);
    for (int d = 0; d < n; ++d) {
      if (d == r) continue;
      m.set(r, d, w);
    }
  }
  return m;
}

DemandMatrix DemandMatrix::permutation(int num_terminals, std::uint64_t seed) {
  DemandMatrix m(num_terminals, 0.0);
  const int n = num_terminals;
  if (n <= 1) return m;
  const int shift =
      1 + static_cast<int>(seed % static_cast<std::uint64_t>(n - 1));
  for (int i = 0; i < n; ++i) m.set(i, (i + shift) % n, 1.0);
  return m;
}

DemandMatrix DemandMatrix::block_diagonal(int num_terminals, int blocks) {
  A2A_REQUIRE(blocks >= 1, "need >= 1 tenant block");
  DemandMatrix m(num_terminals, 0.0);
  const int n = num_terminals;
  if (n <= 1) return m;
  const int b = std::min(blocks, n);
  // Contiguous blocks of size ceil/floor(n/b).
  for (int i = 0; i < n; ++i) {
    const int bi = i * b / n;
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      if (j * b / n == bi) m.set(i, j, 1.0);
    }
  }
  return m;
}

bool DemandMatrix::is_uniform_unit() const {
  for (int i = 0; i < n_; ++i) {
    for (int j = 0; j < n_; ++j) {
      if (i == j) continue;
      if (at(i, j) != 1.0) return false;
    }
  }
  return n_ >= 2;
}

double DemandMatrix::total() const {
  double t = 0.0;
  for (const double w : weights_) t += w;
  return t;
}

int DemandMatrix::num_positive() const {
  int count = 0;
  for (const double w : weights_) count += w > 0.0 ? 1 : 0;
  return count;
}

double DemandMatrix::row_sum(int si) const {
  double t = 0.0;
  for (int j = 0; j < n_; ++j) t += at(si, j);
  return t;
}

double DemandMatrix::col_sum(int di) const {
  double t = 0.0;
  for (int i = 0; i < n_; ++i) t += at(i, di);
  return t;
}

DemandSpec DemandSpec::parse(std::string_view spec) {
  DemandSpec out;
  const std::size_t colon = spec.find(':');
  const std::string_view head = spec.substr(0, colon);
  const std::string_view arg =
      colon == std::string_view::npos ? std::string_view{}
                                      : spec.substr(colon + 1);
  const auto parse_number = [&](const char* what) -> double {
    try {
      std::size_t used = 0;
      const double v = std::stod(std::string(arg), &used);
      A2A_REQUIRE(used == arg.size() && std::isfinite(v), "trailing junk");
      return v;
    } catch (const std::exception&) {
      throw InvalidArgument("bad " + std::string(what) + " in demand spec '" +
                            std::string(spec) + "'");
    }
  };
  if (head == "uniform") {
    A2A_REQUIRE(colon == std::string_view::npos,
                "demand spec 'uniform' takes no argument");
    out.kind = Kind::kUniform;
  } else if (head == "zipf") {
    if (colon == std::string_view::npos) {
      throw InvalidArgument("demand spec 'zipf' needs an exponent: zipf:<s>");
    }
    const double s = parse_number("zipf exponent");
    if (s < 0.0 || s > 8.0) {
      throw InvalidArgument("zipf exponent out of range [0, 8]: " +
                            std::string(arg));
    }
    out.kind = Kind::kZipf;
    out.zipf_s = s;
  } else if (head == "perm") {
    out.kind = Kind::kPermutation;
    if (colon != std::string_view::npos) {
      const double seed = parse_number("permutation seed");
      if (seed < 0.0) {
        throw InvalidArgument("permutation seed must be >= 0");
      }
      out.seed = static_cast<std::uint64_t>(seed);
    }
  } else if (head == "block") {
    if (colon == std::string_view::npos) {
      throw InvalidArgument("demand spec 'block' needs a count: block:<k>");
    }
    const double blocks = parse_number("block count");
    if (blocks < 1.0 || blocks > 1e6 ||
        blocks != std::floor(blocks)) {
      throw InvalidArgument("block count must be a positive integer: " +
                            std::string(arg));
    }
    out.kind = Kind::kBlockDiagonal;
    out.blocks = static_cast<int>(blocks);
  } else {
    throw InvalidArgument("unknown demand spec: " + std::string(spec));
  }
  return out;
}

std::string DemandSpec::to_string() const {
  std::ostringstream os;
  switch (kind) {
    case Kind::kUniform:
      os << "uniform";
      break;
    case Kind::kZipf:
      os << "zipf:" << zipf_s;
      break;
    case Kind::kPermutation:
      os << "perm";
      if (seed != 0) os << ':' << seed;
      break;
    case Kind::kBlockDiagonal:
      os << "block:" << blocks;
      break;
  }
  return os.str();
}

DemandMatrix DemandSpec::instantiate(int num_terminals) const {
  switch (kind) {
    case Kind::kUniform:
      return DemandMatrix::uniform(num_terminals);
    case Kind::kZipf:
      return DemandMatrix::zipf(num_terminals, zipf_s);
    case Kind::kPermutation:
      return DemandMatrix::permutation(num_terminals, seed);
    case Kind::kBlockDiagonal:
      return DemandMatrix::block_diagonal(num_terminals, blocks);
  }
  throw InvalidArgument("corrupt demand spec kind");
}

}  // namespace a2a
