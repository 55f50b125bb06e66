#include "proc.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

bool PinCurrentThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

IdleSpinners::IdleSpinners(const std::vector<int>& cpus) {
  for (const int cpu : cpus) {
    threads_.emplace_back([this, cpu] {
      PinCurrentThread({cpu});
      sched_param param{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#elif defined(__aarch64__)
        asm volatile("yield");
#endif
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads_) thread.join();
}

// ---------------------------------------------------------------------------
// HttpConn

HttpConn::~HttpConn() { Close(); }

void HttpConn::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool HttpConn::Connect() {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // A hung server must not hang the benchmark past its deadline.
  timeval timeout{30, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

bool HttpConn::Exchange(const std::string& method, const std::string& target,
                        const std::string& body, HttpReply* reply) {
  if (fd_ < 0 && !Connect()) return false;
  std::string request = method + " " + target +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!body.empty()) {
    request += "Content-Type: application/json\r\nContent-Length: " +
               std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n";
  request += body;
  for (size_t sent = 0; sent < request.size();) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      Close();
      return false;
    }
    sent += static_cast<size_t>(n);
  }

  // Read the head, then exactly Content-Length body bytes.
  size_t head_end = std::string::npos;
  size_t content_length = 0;
  bool close_after = false;
  char chunk[65536];
  while (true) {
    if (head_end == std::string::npos) {
      head_end = buffer_.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        const std::string head = buffer_.substr(0, head_end);
        if (head.compare(0, 5, "HTTP/") != 0 || head.size() < 12) {
          Close();
          return false;
        }
        reply->status = std::atoi(head.c_str() + 9);
        std::istringstream lines(head);
        std::string line;
        std::getline(lines, line);
        while (std::getline(lines, line)) {
          if (!line.empty() && line.back() == '\r') line.pop_back();
          const size_t colon = line.find(':');
          if (colon == std::string::npos) continue;
          std::string name = line.substr(0, colon);
          for (char& c : name) c = static_cast<char>(std::tolower(c));
          const std::string value = line.substr(line.find_first_not_of(' ', colon + 1));
          if (name == "content-length") {
            content_length = std::strtoull(value.c_str(), nullptr, 10);
          } else if (name == "connection" && value.find("close") != std::string::npos) {
            close_after = true;
          }
        }
      }
    }
    if (head_end != std::string::npos &&
        buffer_.size() >= head_end + 4 + content_length) {
      reply->body.assign(buffer_, head_end + 4, content_length);
      buffer_.erase(0, head_end + 4 + content_length);
      if (close_after) Close();
      return true;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      Close();
      return false;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

// ---------------------------------------------------------------------------
// ServerProcess

bool ServerProcess::Start(const std::string& binary,
                          const std::vector<std::string>& args,
                          const std::vector<int>& cpus, std::string* error) {
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) {
    *error = "pipe failed";
    return false;
  }
  std::vector<std::string> owned = {binary};
  owned.insert(owned.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : owned) argv.push_back(arg.data());
  argv.push_back(nullptr);
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(out[0]);
    ::close(out[1]);
    *error = "fork failed";
    return false;
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    ::sched_setaffinity(0, sizeof(set), &set);
    ::dup2(out[1], STDOUT_FILENO);
    const int null_fd = ::open("/dev/null", O_WRONLY);
    if (null_fd >= 0) ::dup2(null_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(out[1]);
  pid_ = pid;
  stdout_fd_ = out[0];

  // Wait (bounded) for "egp_server VERSION listening on HOST:PORT ...".
  std::string text;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 100) > 0) {
      char chunk[512];
      const ssize_t n = ::read(stdout_fd_, chunk, sizeof(chunk));
      if (n <= 0) break;
      text.append(chunk, static_cast<size_t>(n));
      const size_t at = text.find("listening on ");
      const size_t eol = text.find('\n', at == std::string::npos ? 0 : at);
      if (at != std::string::npos && eol != std::string::npos) {
        const size_t colon = text.rfind(':', text.find(' ', at + 13));
        port_ = std::atoi(text.c_str() + colon + 1);
        if (port_ > 0) return true;
        break;
      }
    }
  }
  *error = "egp_server did not report a listening port (output: " + text + ")";
  Stop();
  return false;
}

void ServerProcess::Stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    bool reaped = false;
    for (int i = 0; i < 200 && !reaped; ++i) {
      reaped = ::waitpid(pid_, &status, WNOHANG) == pid_;
      if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    if (!reaped) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdout_fd_ = -1;
}

double ServerProcess::CpuSeconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t paren = stat.rfind(')');
  if (paren == std::string::npos) return 0.0;
  // Fields after the command: state is field 3, utime 14, stime 15.
  std::istringstream fields(stat.substr(paren + 2));
  std::string field;
  double ticks = 0.0;
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// /metrics

std::map<std::string, double> ScrapeMetrics(HttpConn& conn) {
  std::map<std::string, double> samples;
  HttpReply reply;
  if (!conn.Exchange("GET", "/metrics", "", &reply) || reply.status != 200) {
    return samples;
  }
  std::istringstream lines(reply.body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    samples[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return samples;
}

double MetricSum(const std::map<std::string, double>& samples,
                 const std::string& family, const std::string& label) {
  double sum = 0.0;
  for (auto it = samples.lower_bound(family); it != samples.end(); ++it) {
    const std::string& key = it->first;
    if (key.compare(0, family.size(), family) != 0) break;
    const bool exact = key.size() == family.size();
    if (!exact && key[family.size()] != '{') continue;
    if (!label.empty() && key.find(label) == std::string::npos) continue;
    sum += it->second;
  }
  return sum;
}

}  // namespace perfbench
