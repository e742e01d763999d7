// Fixture: must stay clean — the engine's ack path reaches only bounded
// waits (RecvFor), never the blocking call set.
namespace fixture {

class Mailbox {
 public:
  bool RecvFor(int* msg, long micros);
};

class AsyncPipeline {
 public:
  void OnAck();

 private:
  void PollCompletions();
  Mailbox mail_;
};

void AsyncPipeline::OnAck() {
  PollCompletions();
}

void AsyncPipeline::PollCompletions() {
  int msg = 0;
  mail_.RecvFor(&msg, 100);
}

}  // namespace fixture
