// bench_e2e — one command that measures synthesis, service and failover
// end to end, and splits each by layer in a separate traced run.
//
//   bench_e2e [--seed N] [--seconds S] [--smoke] [--trace DIR] [--json OUT]
//             [--label TEXT] [--tmp DIR]
//       Runs every workload, each in its own child process so that peak
//       RSS and metric-registry deltas belong to one workload. Prints every
//       metric as `workload metric value unit`, appends the run to OUT, and
//       exits non-zero if any output failed its check.
//   bench_e2e --workload NAME [the same options]
//       Runs one workload in this process. The last line of standard output
//       is its result: {"correct", "attempted", "failed", "metrics"}.
//   bench_e2e --compare A.json B.json [--manifest BENCHMARK.json]
//       Runs compare.py: median and quartiles of two sets of runs for each
//       workload and metric, with a verdict against the manifest's bounds.
//
// --trace DIR makes the run the traced one: it reports the per-layer
// metrics and writes DIR/<workload>.trace.json (a Chrome trace) and
// DIR/<workload>.layers.json. --smoke runs every code path once, briefly.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "failover.hpp"
#include "service.hpp"
#include "synth.hpp"

#ifndef A2A_E2E_BUILD_TYPE
#define A2A_E2E_BUILD_TYPE "unknown"
#endif
#ifndef A2A_E2E_DIR
#define A2A_E2E_DIR "bench/e2e"
#endif

namespace {

using namespace a2a::e2e;

void run_pmcf(const RunConfig& cfg, Result& r) {
  run_synthesis(cfg, pmcf_gk27_input(), r);
}
void run_link(const RunConfig& cfg, Result& r) {
  run_synthesis(cfg, link_torus18_input(), r);
}

struct WorkloadDef {
  const char* name;
  void (*run)(const RunConfig&, Result&);
};

constexpr WorkloadDef kWorkloads[] = {
    {"pmcf-gk27", run_pmcf},
    {"link-torus18-zipf0.6", run_link},
    {"service-mixed", run_service},
    {"failover-gk27", run_failover},
};

struct Args {
  RunConfig cfg;
  bool seconds_set = false;
  std::string json_out;
  std::string label = "unlabeled";
  std::string manifest = "BENCHMARK.json";
  std::vector<std::string> compare;
};

void usage() {
  std::cerr
      << "usage: bench_e2e [--seed N] [--seconds S] [--smoke] [--trace DIR]\n"
         "                 [--json OUT] [--label TEXT] [--tmp DIR]\n"
         "       bench_e2e --workload NAME [the same options]\n"
         "       bench_e2e --compare A.json B.json [--manifest BENCHMARK.json]\n"
         "workloads:";
  for (const WorkloadDef& w : kWorkloads) std::cerr << ' ' << w.name;
  std::cerr << '\n';
}

bool parse_args(int argc, char** argv, Args& a) {
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
        return argv[++i];
      };
      if (flag == "--seed") a.cfg.seed = std::stoull(value());
      else if (flag == "--seconds") {
        a.cfg.seconds = std::stod(value());
        a.seconds_set = true;
      }
      else if (flag == "--smoke") a.cfg.smoke = true;
      else if (flag == "--trace") a.cfg.trace_dir = value();
      else if (flag == "--tmp") a.cfg.tmp_dir = value();
      else if (flag == "--workload") a.cfg.workload = value();
      else if (flag == "--json") a.json_out = value();
      else if (flag == "--label") a.label = value();
      else if (flag == "--manifest") a.manifest = value();
      else if (flag == "--compare") {
        a.compare.push_back(value());
        a.compare.push_back(value());
      } else {
        throw std::invalid_argument("unknown flag " + flag);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return false;
  }
  if (a.cfg.smoke && !a.seconds_set) a.cfg.seconds = 2.0;
  return a.cfg.seconds >= 0.0;
}

int run_one(const RunConfig& cfg) {
  for (const WorkloadDef& w : kWorkloads) {
    if (cfg.workload != w.name) continue;
    Result r(cfg.workload, cfg.traced());
    (void)host_probe();  // builds the probe's graph before anything is timed.
    w.run(cfg, r);
    r.print_lines(std::cout);
    std::cout << "record " << r.record_json() << '\n' << r.result_json() << std::endl;
    return r.correct() ? 0 : 1;
  }
  std::cerr << "bench_e2e: unknown workload " << cfg.workload << "\n";
  usage();
  return 2;
}

/// Runs this binary again with `args`, its standard output on a pipe.
/// Returns the exit code and everything it printed.
std::pair<int, std::string> run_child(const std::vector<std::string>& args) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    std::vector<char*> argv;
    for (const std::string& s : args) argv.push_back(const_cast<char*>(s.c_str()));
    argv.push_back(nullptr);
    ::execv("/proc/self/exe", argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return {WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status), out};
}

/// The text of the run file at `path` with its closing bracket removed,
/// ready for one more element: "[\n" when the file is absent or empty.
/// Throws, leaving the file alone, when it holds anything but an array.
std::string open_run_array(const std::string& path) {
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  const auto space = [](char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; };
  while (!text.empty() && space(text.back())) text.pop_back();
  const auto first = std::find_if_not(text.begin(), text.end(), space);
  if (first == text.end()) return "[\n";
  if (*first != '[' || text.back() != ']') {
    throw std::runtime_error(path + " is not a JSON array of runs; not writing to it");
  }
  text.pop_back();
  while (!text.empty() && space(text.back())) text.pop_back();
  return text + (text.back() == '[' ? "\n" : ",\n");
}

/// Appends `record` to the JSON array of runs in `path`.
void append_run(const std::string& path, const std::string& record) {
  const std::string head = open_run_array(path);
  std::ofstream(path, std::ios::binary) << head << record << "\n]\n";
}

/// --smoke's check that a run file which is not an array is refused, not
/// overwritten. Returns "" when it is.
std::string run_file_problem(const std::string& tmp_dir) {
  std::filesystem::create_directories(tmp_dir);
  const std::string path = tmp_dir + "/not-a-run-array.json";
  std::ofstream(path, std::ios::binary) << "{\"a\": 1}\n";
  std::string problem = "a run file that is not an array was overwritten";
  try {
    append_run(path, "{}");
  } catch (const std::runtime_error&) {
    std::ifstream in(path, std::ios::binary);
    std::string kept;
    std::getline(in, kept);
    problem = kept == "{\"a\": 1}" ? "" : "a refused run file was changed";
  }
  std::filesystem::remove(path);
  return problem;
}

int run_all(const Args& a) {
  std::vector<std::string> records;
  bool ok = true;
  if (!a.json_out.empty()) (void)open_run_array(a.json_out);  // refuse it before running.
  if (a.cfg.smoke) {
    if (const std::string why = run_file_problem(a.cfg.tmp_dir); !why.empty()) {
      ok = false;
      std::cout << "run file check failed: " << why << '\n';
    }
  }
  for (const WorkloadDef& w : kWorkloads) {
    std::vector<std::string> args = {"bench_e2e",          "--workload",
                                     w.name,               "--seed",
                                     std::to_string(a.cfg.seed), "--seconds",
                                     json_number(a.cfg.seconds), "--tmp",
                                     a.cfg.tmp_dir};
    if (a.cfg.smoke) args.emplace_back("--smoke");
    if (a.cfg.traced()) {
      args.emplace_back("--trace");
      args.push_back(a.cfg.trace_dir);
    }
    const auto [code, out] = run_child(args);
    std::istringstream lines(out);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.rfind("record ", 0) == 0) records.push_back(line.substr(7));
      else if (line.rfind("{", 0) != 0) std::cout << line << '\n';
    }
    if (code != 0) {
      ok = false;
      std::cout << w.name << " exited with code " << code << '\n';
    }
    std::cout.flush();
  }
  if (!a.json_out.empty()) {
    std::string run = "{\"label\": " + json_string(a.label) +
                      ", \"seed\": " + std::to_string(a.cfg.seed) +
                      ", \"seconds\": " + json_number(a.cfg.seconds) +
                      ", \"smoke\": " + (a.cfg.smoke ? "true" : "false") +
                      ", \"traced\": " + (a.cfg.traced() ? "true" : "false") +
                      ", \"compiler\": " + json_string(__VERSION__) +
                      ", \"build_type\": " + json_string(A2A_E2E_BUILD_TYPE) +
                      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
                      ", \"workloads\": [";
    for (std::size_t i = 0; i < records.size(); ++i) {
      run += (i ? ",\n  " : "\n  ") + records[i];
    }
    append_run(a.json_out, run + "]}");
    std::cout << "appended the run to " << a.json_out << '\n';
  }
  std::cout << (ok ? "every output passed its check\n" : "FAILED: see above\n");
  return ok ? 0 : 1;
}

/// `--compare` is compare.py, beside this benchmark's sources.
int run_compare(const Args& a) {
  const std::string script = std::string(A2A_E2E_DIR) + "/compare.py";
  const char* argv[] = {"python3",           script.c_str(),         a.compare[0].c_str(),
                        a.compare[1].c_str(), "--manifest",           a.manifest.c_str(),
                        nullptr};
  ::execvp("python3", const_cast<char* const*>(argv));
  std::cerr << "bench_e2e: cannot run python3: " << std::strerror(errno) << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    usage();
    return 2;
  }
  try {
    if (!a.compare.empty()) {
      return run_compare(a);
    }
    if (!a.cfg.workload.empty()) return run_one(a.cfg);
    return run_all(a);
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 1;
  }
}
