// Fixture: trips pipeline-blocking — an unbounded Recv is reachable
// from OnAck (the handler's engine path) through a helper one hop away.
namespace fixture {

class Mailbox {
 public:
  bool Recv(int* msg);
  bool RecvFor(int* msg, long micros);
};

class AsyncPipeline {
 public:
  void OnAck();

 private:
  void DrainCompletions();
  Mailbox mail_;
};

void AsyncPipeline::OnAck() {
  DrainCompletions();
}

void AsyncPipeline::DrainCompletions() {
  int msg = 0;
  mail_.Recv(&msg);  // BAD: unbounded receive on the handler's engine path
}

}  // namespace fixture
