#include "net/comm.h"

#include <sched.h>

#include <algorithm>
#include <cassert>
#include <thread>

#include "common/coding.h"
#include "common/timer.h"
#include "fault/failpoint.h"

namespace papyrus::net {

namespace {
// Internal collective tags (channel 1 only, so they can never collide with
// user traffic even though values overlap).
constexpr int kTagBarrierIn = 1;
constexpr int kTagBarrierOut = 2;
constexpr int kTagGather = 3;
constexpr int kTagBcast = 4;

// Spin iterations between yields.  The fit rule counts CPUs, not where the
// scheduler puts threads: a job started on an idle host can run all its
// threads on one CPU for its first second or so, and a spinner
// that never yields would then hold the CPU its sender needs for the whole
// budget on every receive.
constexpr int kPausesPerYield = 16;

// Spin iteration i: x86 PAUSE tells the core this is a busy-wait, so the
// sibling hyperthread and the memory system are not hammered; every
// kPausesPerYield-th iteration, and every one elsewhere, yields the CPU.
inline void SpinPause(int i) {
#if defined(__x86_64__) || defined(__i386__)
  if (i % kPausesPerYield != 0) {
    __builtin_ia32_pause();
    return;
  }
#else
  (void)i;  // off x86 every iteration yields
#endif
  std::this_thread::yield();
}

// CPUs this process may run on (its affinity mask), at least 1.
int AvailableCpus() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
#endif
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}
}  // namespace

void Mailbox::Deliver(Message msg) {
  msg.delivered_at_us = NowMicros();
  last_delivery_us_.store(msg.delivered_at_us, std::memory_order_relaxed);
  {
    MutexLock lock(&mu_);
    queue_.push_back(std::move(msg));
    deliveries_.fetch_add(1, std::memory_order_release);
  }
  cv_.NotifyAll();
}

bool Mailbox::TakeMatch(int src, int tag, uint64_t now, Message* out,
                        uint64_t* next_visible) {
  *next_visible = UINT64_MAX;
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (!Matches(*it, src, tag)) continue;
    if (it->visible_at_us > now) {
      // In flight (simulated propagation): wait for it unless a later,
      // already-visible match exists — non-overtaking per (src, tag) means
      // no later match from the same source can be visible earlier, so
      // stopping at the first visible match is correct.
      *next_visible = std::min(*next_visible, it->visible_at_us);
      continue;
    }
    *out = std::move(*it);
    queue_.erase(it);
    return true;
  }
  return false;
}

void Mailbox::Wait(uint64_t now, uint64_t next_visible, uint64_t deadline,
                   uint64_t* spin_until) {
  if (*spin_until == 0) {
    // First empty scan of this receive: open its one spin budget, or close
    // it for good (budget 1 = already spent) if a rule says park.
    const bool warm =
        now <= last_delivery_us_.load(std::memory_order_relaxed) +
                   kColdAfterUs;
    *spin_until = busy_poll_ && warm && next_visible == UINT64_MAX
                      ? std::min(now + kSpinBudgetUs, deadline)
                      : 1;
  }
  if (next_visible == UINT64_MAX && now < *spin_until) {
    const uint64_t seen = deliveries_.load(std::memory_order_relaxed);
    mu_.Unlock();
    for (int i = 1; deliveries_.load(std::memory_order_acquire) == seen &&
                    NowMicros() < *spin_until;
         ++i) {
      SpinPause(i);
    }
    mu_.Lock();
    return;  // re-scan: a delivery, or the budget is spent
  }
  // Park: wake at whichever comes first — an in-flight match turning
  // visible, the deadline, or a Deliver's notify.
  const uint64_t wake_at = std::min(next_visible, deadline);
  if (wake_at == UINT64_MAX) {
    cv_.Wait(&mu_);
  } else {
    cv_.WaitForMicros(&mu_, wake_at - now);
  }
}

Message Mailbox::Recv(int src, int tag) {
  MutexLock lock(&mu_);
  uint64_t spin_until = 0;
  Message out;
  for (;;) {
    const uint64_t now = NowMicros();
    uint64_t next_visible;
    if (TakeMatch(src, tag, now, &out, &next_visible)) return out;
    Wait(now, next_visible, UINT64_MAX, &spin_until);
  }
}

bool Mailbox::RecvFor(int src, int tag, uint64_t timeout_us, Message* out) {
  const uint64_t deadline = NowMicros() + timeout_us;
  MutexLock lock(&mu_);
  uint64_t spin_until = 0;
  for (;;) {
    const uint64_t now = NowMicros();
    uint64_t next_visible;
    if (TakeMatch(src, tag, now, out, &next_visible)) return true;
    if (now >= deadline) return false;
    Wait(now, next_visible, deadline, &spin_until);
  }
}

bool Mailbox::TryRecv(int src, int tag, Message* out) {
  MutexLock lock(&mu_);
  uint64_t next_visible;
  return TakeMatch(src, tag, NowMicros(), out, &next_visible);
}

World::World(const sim::Topology& topo)
    : topo_(topo), net_(topo), busy_poll_(2 * topo.nranks <= AvailableCpus()) {}

Communicator World::world_comm(int rank) {
  return Communicator(this, /*comm_id=*/0, rank);
}

const std::vector<std::unique_ptr<Mailbox>>* World::mailboxes(
    uint64_t comm_id) {
  MutexLock lock(&mu_);
  auto& boxes = mailboxes_[comm_id];
  if (boxes.empty()) {
    boxes.resize(static_cast<size_t>(topo_.nranks) * 2);
    for (auto& b : boxes) b = std::make_unique<Mailbox>(busy_poll_);
  }
  return &boxes;
}

uint64_t World::DerivedComm(uint64_t parent, uint64_t seq) {
  MutexLock lock(&mu_);
  auto key = std::make_pair(parent, seq);
  auto it = derived_.find(key);
  if (it != derived_.end()) return it->second;
  uint64_t id = next_comm_id_++;
  derived_.emplace(key, id);
  return id;
}

Communicator::Communicator(World* world, uint64_t comm_id, int rank)
    : world_(world),
      comm_id_(comm_id),
      rank_(rank),
      boxes_(world->mailboxes(comm_id)) {}

int Communicator::size() const { return world_->size(); }

void Communicator::Send(int dst, int tag, const Slice& payload) const {
  assert(tag >= 0 && "negative tags are reserved");
  assert(dst >= 0 && dst < world_->size());
  const uint64_t delay =
      world_->interconnect().Charge(rank_, dst, payload.size());
  Message msg{rank_, tag, payload.ToString(), delay ? NowMicros() + delay : 0};
  // Drop/dup faults model the fabric, so they apply only to user
  // point-to-point traffic that actually crosses it: loopback sends never
  // leave the rank, and collective traffic (SendInternal, channel 1) is
  // exempt so a dropped token cannot wedge a barrier — the recovery story
  // for collectives is the deadline in BarrierFor, not retransmission.
  if (fault::Enabled() && dst != rank_) {
    static fault::Point& drop =
        fault::Registry::Instance().GetPoint("net.msg.drop");
    static fault::Point& dup =
        fault::Registry::Instance().GetPoint("net.msg.dup");
    if (drop.Fire()) return;  // charged to the interconnect, never delivered
    if (dup.Fire()) box(dst, /*channel=*/0).Deliver(msg);
  }
  box(dst, /*channel=*/0).Deliver(std::move(msg));
}

Message Communicator::Recv(int src, int tag) const {
  return box(rank_, 0).Recv(src, tag);
}

bool Communicator::TryRecv(int src, int tag, Message* out) const {
  return box(rank_, 0).TryRecv(src, tag, out);
}

bool Communicator::RecvFor(int src, int tag, uint64_t timeout_us,
                           Message* out) const {
  return box(rank_, 0).RecvFor(src, tag, timeout_us, out);
}

void Communicator::SendInternal(int dst, int tag, const Slice& payload) const {
  const uint64_t delay =
      world_->interconnect().Charge(rank_, dst, payload.size());
  box(dst, /*channel=*/1)
      .Deliver(Message{rank_, tag, payload.ToString(),
                       delay ? NowMicros() + delay : 0});
}

Message Communicator::RecvInternal(int src, int tag) const {
  return box(rank_, 1).Recv(src, tag);
}

bool Communicator::RecvInternalFor(int src, int tag, uint64_t timeout_us,
                                   Message* out) const {
  return box(rank_, 1).RecvFor(src, tag, timeout_us, out);
}

Communicator Communicator::Dup() const {
  const uint64_t seq = (*dup_seq_)++;
  const uint64_t id = world_->DerivedComm(comm_id_, seq);
  return Communicator(world_, id, rank_);
}

void Communicator::Barrier() const {
  const int n = size();
  if (n == 1) return;
  if (rank_ == 0) {
    for (int r = 1; r < n; ++r) RecvInternal(kAnySource, kTagBarrierIn);
    for (int r = 1; r < n; ++r) SendInternal(r, kTagBarrierOut, Slice());
  } else {
    SendInternal(0, kTagBarrierIn, Slice());
    RecvInternal(0, kTagBarrierOut);
  }
}

bool Communicator::BarrierFor(uint64_t timeout_us) const {
  const int n = size();
  if (n == 1) return true;
  const uint64_t deadline = NowMicros() + timeout_us;
  auto remaining = [deadline]() -> uint64_t {
    const uint64_t now = NowMicros();
    return deadline > now ? deadline - now : 0;
  };
  Message m;
  if (rank_ == 0) {
    for (int r = 1; r < n; ++r) {
      if (!RecvInternalFor(kAnySource, kTagBarrierIn, remaining(), &m)) {
        return false;
      }
    }
    for (int r = 1; r < n; ++r) SendInternal(r, kTagBarrierOut, Slice());
  } else {
    SendInternal(0, kTagBarrierIn, Slice());
    if (!RecvInternalFor(0, kTagBarrierOut, remaining(), &m)) return false;
  }
  return true;
}

void Communicator::Allgather(const Slice& mine,
                             std::vector<std::string>* out) const {
  const int n = size();
  out->assign(static_cast<size_t>(n), {});
  if (n == 1) {
    (*out)[0] = mine.ToString();
    return;
  }
  if (rank_ == 0) {
    (*out)[0] = mine.ToString();
    for (int i = 1; i < n; ++i) {
      Message m = RecvInternal(kAnySource, kTagGather);
      (*out)[static_cast<size_t>(m.src)] = std::move(m.payload);
    }
    // Serialize all contributions and broadcast.
    std::string packed;
    for (const auto& s : *out) PutLengthPrefixed(&packed, s);
    for (int r = 1; r < n; ++r) SendInternal(r, kTagBcast, packed);
  } else {
    SendInternal(0, kTagGather, mine);
    Message m = RecvInternal(0, kTagBcast);
    Slice in(m.payload);
    for (int i = 0; i < n; ++i) {
      Slice part;
      bool ok = GetLengthPrefixed(&in, &part);
      assert(ok);
      (void)ok;  // root encoded exactly n parts into the bcast payload
      (*out)[static_cast<size_t>(i)] = part.ToString();
    }
  }
}

void Communicator::Bcast(std::string* data, int root) const {
  const int n = size();
  if (n == 1) return;
  if (rank_ == root) {
    for (int r = 0; r < n; ++r) {
      if (r != root) SendInternal(r, kTagBcast, *data);
    }
  } else {
    Message m = RecvInternal(root, kTagBcast);
    *data = std::move(m.payload);
  }
}

uint64_t Communicator::AllreduceSum(uint64_t v) const {
  char buf[8];
  EncodeFixed64(buf, v);
  std::vector<std::string> all;
  Allgather(Slice(buf, 8), &all);
  uint64_t sum = 0;
  for (const auto& s : all) sum += DecodeFixed64(s.data());
  return sum;
}

uint64_t Communicator::AllreduceMax(uint64_t v) const {
  char buf[8];
  EncodeFixed64(buf, v);
  std::vector<std::string> all;
  Allgather(Slice(buf, 8), &all);
  uint64_t mx = 0;
  for (const auto& s : all) {
    uint64_t x = DecodeFixed64(s.data());
    if (x > mx) mx = x;
  }
  return mx;
}

}  // namespace papyrus::net
