// Fixture: must stay clean — the election probes run with no lock held,
// and only the winner is published under the mutex, after a re-check.
#define GUARDED_BY(x)

namespace fixture {

class Mutex {
 public:
  void Lock();
  void Unlock();
};

class MutexLock {
 public:
  explicit MutexLock(Mutex* mu);
};

class Runtime {
 public:
  int RequestReply(int dst);
};

class Shard {
 public:
  int Route(int owner);

 private:
  int Probe(int candidate);
  Mutex mu_;
  int cached_ GUARDED_BY(mu_) = -1;
  Runtime* rt_;
};

int Shard::Route(int owner) {
  {
    MutexLock lock(&mu_);
    if (cached_ >= 0) return cached_;
  }
  const int winner = Probe(owner);  // no lock held across the wait
  MutexLock lock(&mu_);
  if (cached_ < 0) cached_ = winner;  // the first published winner stands
  return cached_;
}

int Shard::Probe(int candidate) { return rt_->RequestReply(candidate); }

}  // namespace fixture
