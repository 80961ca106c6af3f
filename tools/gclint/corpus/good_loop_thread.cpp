// Known-good corpus for the loop-purity pass: a loop thread that stays
// pure. Plain (non-Guarded) short critical sections are fine, and a read
// from a nonblocking fd is fine when suppressed with its justification —
// the escape hatch the real server uses for eventfd wakeups.
#include "mock_runtime.h"

namespace goodnet {
using namespace mgc;

class NetServer {
 public:
  void loop_main() {
    for (;;) {
      drain_wakeups();
      drain_completions();
    }
  }

 private:
  void drain_wakeups() {
    char buf[8];
    // gclint: suppress(loop-purity) wake fd is EFD_NONBLOCK; read never stalls
    long n = ::read(wake_fd_, buf, sizeof(buf));
    wakeups_ += n > 0 ? 1 : 0;
  }

  void drain_completions() {
    MutexLock g(sink_mu_);  // plain guard, no safepoint parking: fine
    pending_ = 0;
  }

  int wake_fd_ = -1;
  int pending_ = 0;
  long wakeups_ = 0;
  Mutex sink_mu_{LockRank::kNetSink, "corpus-sink"};
};

}  // namespace goodnet
