// Process and transport plumbing of the benchmark: a keep-alive HTTP/1.1
// client over loopback, the pinned egp_server child process, and the
// /proc and /metrics readings taken around a measured window.
#ifndef PERFBENCH_PROC_H_
#define PERFBENCH_PROC_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// CPU ids this process may run on, ascending.
std::vector<int> AllowedCpus();
/// Pins the calling thread (and threads it creates afterwards).
bool PinCurrentThread(const std::vector<int>& cpus);

/// Keeps every CPU in `cpus` busy while it lives: one thread per CPU at
/// SCHED_IDLE priority, spinning. Any other thread that wakes on that CPU
/// preempts it at once. On a virtual machine an idle CPU halts, and the
/// host must schedule it again before it can take a wake-up; with a
/// loopback request/reply load that made up a quarter of the machine's
/// time as steal and multi-millisecond stalls. A CPU that never idles
/// never pays it.
class IdleSpinners {
 public:
  explicit IdleSpinners(const std::vector<int>& cpus);
  /// Stops and joins every spinner.
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

struct HttpReply {
  int status = 0;
  std::string body;
};

/// One blocking keep-alive connection. It reconnects on its own when the
/// server closes the connection after a response.
class HttpConn {
 public:
  explicit HttpConn(int port) : port_(port) {}
  ~HttpConn();
  HttpConn(const HttpConn&) = delete;
  HttpConn& operator=(const HttpConn&) = delete;

  /// Sends one request and reads the whole reply. False on a transport
  /// error (the connection is then closed and reopened by the next call).
  bool Exchange(const std::string& method, const std::string& target,
                const std::string& body, HttpReply* reply);

 private:
  bool Connect();
  void Close();

  int port_;
  int fd_ = -1;
  std::string buffer_;
};

/// The egp_server child, pinned to `cpus` before exec.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `binary args...` and waits for its "listening on" line.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             const std::vector<int>& cpus, std::string* error);
  /// SIGTERM, then SIGKILL after a grace period; always reaps the child.
  void Stop();

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

  /// utime + stime of the child, in seconds.
  double CpuSeconds() const;
  /// Peak resident set (VmHWM), in MiB.
  double PeakRssMb() const;

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  int stdout_fd_ = -1;
};

/// Scrapes GET /metrics and keeps every sample as "name{labels}" -> value.
std::map<std::string, double> ScrapeMetrics(HttpConn& conn);

/// Sum of every sample of `family` whose label set contains `label`
/// (e.g. `site="engine.prepared_cache"`); an empty `label` sums them all.
double MetricSum(const std::map<std::string, double>& samples,
                 const std::string& family, const std::string& label = "");

}  // namespace perfbench

#endif  // PERFBENCH_PROC_H_
