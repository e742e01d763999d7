// Fixture: trips rpc-under-lock — a reply wait while a mutex is held,
// once one call away under an RAII guard and once under a REQUIRES
// contract.
#define REQUIRES(x)
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
  int ElectLocked(int dead) REQUIRES(mu_);

 private:
  int Probe(int candidate);
  Mutex mu_;
  int cached_ GUARDED_BY(mu_) = -1;
  Runtime* rt_;
};

int Shard::Route(int owner) {
  MutexLock lock(&mu_);
  if (cached_ >= 0) return cached_;
  cached_ = Probe(owner);  // BAD: Probe waits for a reply under mu_
  return cached_;
}

int Shard::ElectLocked(int dead) {
  return rt_->RequestReply(dead);  // BAD: the caller holds mu_
}

int Shard::Probe(int candidate) { return rt_->RequestReply(candidate); }

}  // namespace fixture
