// Fixture: must stay clean — every would-be finding carries either the
// mandated why-comment or an analyze:allow-<rule> escape.  A regression
// that stops honoring escapes turns this file red.
#include <cstdint>

#define GUARDED_BY(x)

namespace fixture {

struct Status {
  static Status OK();
  void IgnoreError() const {}
};

Status Flush();
Status Migrate(int rank);

class Mutex {
 public:
  void Lock();
  void Unlock();
};

class MutexLock {
 public:
  explicit MutexLock(Mutex* mu);
};

class Counter {
 public:
  void Bump() {
    MutexLock lock(&mu_);
    // analyze:allow-guarded-by: metrics scratch, racy-read tolerated
    hits_ += 1;
  }

 private:
  Mutex mu_;  // lint:unguarded-ok (fixture: the escape above is the point)
  uint64_t hits_ = 0;
};

void Justified() {
  // Shutdown path: the store is already gone, nothing to do on failure.
  (void)Flush();
  Flush().IgnoreError();  // close() retries; this is the best-effort pass
  Migrate(3);  // analyze:allow-status-discard: fixture escape check
}

// analyze:allow-pipeline-blocking: fixture — not the real engine
void OnAckHelper();

class Runtime {
 public:
  int RequestReply(int dst);
};

int ProbeUnderLock(Runtime* rt, Mutex* mu) {
  MutexLock lock(mu);
  // analyze:allow-rpc-under-lock: fixture — a lock no other thread takes
  return rt->RequestReply(1);
}

}  // namespace fixture
