// a2a-schedserved — the schedule service daemon: the layered counterpart to
// schedgen's one-shot pipeline. Serves schedules over loopback HTTP with
// request coalescing, deadline admission and zero-copy artifact hits.
//
//   schedserved --cache-dir /var/cache/a2a --port 8787
//   schedserved --port 0 --port-file /tmp/a2a.port   # ephemeral port
//   curl "http://127.0.0.1:8787/schedule?topology=genkautz&nodes=27&degree=4"
//   curl http://127.0.0.1:8787/metrics
//   curl -X POST http://127.0.0.1:8787/shutdown
//
// Construction/destruction order is the service's lifetime rule: the cache
// outlives the broker, and the server is torn down first so no request
// races a dying layer.
//
// Exits 0 on a clean shutdown (signal or POST /shutdown), 2 on a bad flag or
// value ("error: ..." on stderr).
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "core/schedule_cache.hpp"
#include "service/admission.hpp"
#include "service/broker.hpp"
#include "service/server.hpp"

namespace {

using namespace a2a;

struct Args {
  std::uint16_t port = 8787;
  std::string port_file;
  std::string cache_dir;
  std::string trace_dir;
  unsigned threads = 4;
  std::size_t max_pending = 64;
  double default_deadline_ms = 0.0;
};

void usage() {
  std::cerr <<
      "usage: schedserved [options]\n"
      "  --port P          TCP port on 127.0.0.1 (0 = ephemeral; default 8787)\n"
      "  --port-file FILE  write the bound port here once listening\n"
      "  --cache-dir DIR   disk tier of the schedule cache (strongly\n"
      "                    recommended: without it schedules are kept in\n"
      "                    memory only and every restart recompiles)\n"
      "  --trace-dir DIR   enable per-request tracing (trace=1) into DIR\n"
      "  --threads N       connection worker threads (default 4)\n"
      "  --max-pending N   misses in service at once before 429 (default 64)\n"
      "  --deadline-ms M   default deadline for requests that carry none\n"
      "                    (default: none)\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw InvalidArgument(flag + " needs a value");
      return argv[++i];
    };
    try {
      if (flag == "--port") {
        args.port = parse_number<std::uint16_t>(value(), flag);
      }
      else if (flag == "--port-file") args.port_file = value();
      else if (flag == "--cache-dir") args.cache_dir = value();
      else if (flag == "--trace-dir") args.trace_dir = value();
      else if (flag == "--threads") {
        args.threads = parse_number<unsigned>(value(), flag);
      }
      else if (flag == "--max-pending") {
        args.max_pending = parse_number<std::size_t>(value(), flag);
      }
      else if (flag == "--deadline-ms") {
        args.default_deadline_ms = parse_number<double>(value(), flag);
      }
      else if (flag == "--help" || flag == "-h") {
        usage();
        return 0;
      } else {
        throw InvalidArgument("unknown flag: " + flag);
      }
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
  }

  // Block the termination signals before any thread exists so every thread
  // inherits the mask; main() collects them below with sigwait.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  try {
    // Memory-only without --cache-dir, so repeat requests are still hits.
    ScheduleCacheOptions cache_options;
    cache_options.disk_dir = args.cache_dir;
    ScheduleCache cache(std::move(cache_options));
    service::ScheduleBroker broker(&cache, nullptr);
    service::AdmissionOptions admission_options;
    admission_options.max_pending = args.max_pending;
    admission_options.default_deadline_ms = args.default_deadline_ms;
    service::AdmissionQueue admission(&broker, admission_options);
    service::ServerOptions server_options;
    server_options.port = args.port;
    server_options.threads = args.threads;
    server_options.trace_dir = args.trace_dir;
    service::ScheduleServer server(&admission, server_options);
    server.start();

    if (!args.port_file.empty()) {
      std::ofstream out(args.port_file, std::ios::binary);
      A2A_REQUIRE(out.good(), "cannot open port file: ", args.port_file);
      out << server.port() << "\n";
      A2A_REQUIRE(out.good(), "short write to port file: ", args.port_file);
    }
    std::cerr << "schedserved: listening on 127.0.0.1:" << server.port()
              << (args.cache_dir.empty() ? " (memory-only cache)"
                                         : " (cache: " + args.cache_dir + ")")
              << "\n";

    // Two shutdown paths converge on sigwait: a signal arrives directly, or
    // POST /shutdown wakes the watcher thread, which re-raises SIGTERM.
    std::thread shutdown_watcher([&server] {
      server.wait_shutdown();
      // Process-directed (NOT raise(): that thread-directs the signal at
      // the watcher, where it stays blocked forever) so main's sigwait
      // collects it.
      ::kill(::getpid(), SIGTERM);
    });
    int sig = 0;
    sigwait(&sigs, &sig);
    std::cerr << "schedserved: shutting down ("
              << (sig == SIGINT ? "SIGINT" : "SIGTERM") << ")\n";
    server.stop();  // unblocks the watcher if a signal beat /shutdown.
    shutdown_watcher.join();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
