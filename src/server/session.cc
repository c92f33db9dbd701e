#include "server/session.h"

#include <sys/socket.h>
#include <unistd.h>

#include <sstream>
#include <utility>

#include "core/admission.h"
#include "core/sql_execution.h"

namespace privateclean {
namespace server {

namespace {

/// Reader poll granularity: how often a blocked reader re-checks
/// drain/abort flags and advances the idle clock.
constexpr int kReaderTickMs = 200;

}  // namespace

Session::Session(int fd, uint64_t id, SessionContext context)
    : id_(id), context_(std::move(context)), fd_(fd) {}

Session::~Session() {
  Abort();
  if (reader_.joinable()) reader_.join();
  ::close(fd_);
}

void Session::Start() {
  reader_ = std::thread([this] {
    ReaderLoop();
    std::function<void()> on_closed;
    {
      std::lock_guard<std::mutex> lock(mu_);
      reader_exited_ = true;
      on_closed = ClaimFinishLocked();
    }
    if (on_closed) on_closed();
  });
}

SessionState Session::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

bool Session::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return finish_claimed_;
}

void Session::BeginDrain() {
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_ || aborted_ || state_ == SessionState::kClosed) return;
  draining_ = true;
  state_ = SessionState::kDraining;
  // Wake the reader out of its poll: after SHUT_RD every read returns
  // EOF, the reader enqueues kDrain behind whatever is already queued,
  // and the strand says GOODBYE after the last queued answer.
  ::shutdown(fd_, SHUT_RD);
}

void Session::Abort() {
  std::function<void()> on_closed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!aborted_) {
      aborted_ = true;
      queue_.clear();  // dropped unanswered, by contract
      if (state_ != SessionState::kClosed) {
        state_ = SessionState::kClosed;
        ::shutdown(fd_, SHUT_RDWR);
      }
      space_cv_.notify_all();
    }
    on_closed = ClaimFinishLocked();
  }
  if (on_closed) on_closed();
}

void Session::ReaderLoop() {
  FrameReader reader(fd_);
  int idle_ms = 0;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (aborted_ || state_ == SessionState::kClosed) return;
    }
    auto result = reader.Read(kReaderTickMs);
    bool draining;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (aborted_) return;
      draining = draining_;
    }
    if (draining) {
      // A frame read concurrently with the drain request is dropped:
      // drain answers what was already queued, nothing newer.
      Enqueue(Item{ItemKind::kDrain, Frame{}, Status::OK()});
      return;
    }
    if (!result.ok()) {
      const Status& status = result.status();
      if (FrameReader::IsReadTimeout(status)) {
        bool busy;
        {
          std::lock_guard<std::mutex> lock(mu_);
          busy = pump_scheduled_ || !queue_.empty();
        }
        if (busy) {
          // A session waiting on its own long query is not idle.
          idle_ms = 0;
          continue;
        }
        idle_ms += kReaderTickMs;
        if (context_.idle_timeout_ms > 0 &&
            idle_ms >= context_.idle_timeout_ms) {
          Enqueue(Item{ItemKind::kTimeout, Frame{}, Status::OK()});
          return;
        }
        continue;
      }
      ItemKind kind =
          status.IsDataLoss() ? ItemKind::kCorrupt : ItemKind::kReadError;
      Enqueue(Item{kind, Frame{}, status});
      return;
    }
    idle_ms = 0;
    if (!result->has_value()) {
      Enqueue(Item{ItemKind::kEof, Frame{}, Status::OK()});
      return;
    }
    Enqueue(Item{ItemKind::kFrame, std::move(**result), Status::OK()});
  }
}

void Session::Enqueue(Item item) {
  std::unique_lock<std::mutex> lock(mu_);
  if (item.kind == ItemKind::kFrame) {
    // Backpressure: a pipelining client that outruns the strand blocks
    // here (and therefore in its socket) instead of growing our memory.
    // Control items always land, so close reasons cannot deadlock.
    space_cv_.wait(lock, [&] {
      return queue_.size() < context_.queue_depth || aborted_;
    });
    if (aborted_) return;
  }
  queue_.push_back(std::move(item));
  SchedulePumpLocked();
}

void Session::SchedulePumpLocked() {
  if (pump_scheduled_ || queue_.empty()) return;
  pump_scheduled_ = true;
  context_.pool->Schedule([this] { Pump(); });
}

void Session::Pump() {
  Item item;
  bool have_item = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!queue_.empty()) {
      item = std::move(queue_.front());
      queue_.pop_front();
      have_item = true;
    }
  }
  if (have_item) {
    space_cv_.notify_one();
    Handle(std::move(item));
  }
  std::function<void()> on_closed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pump_scheduled_ = false;
    // One item per task: a busy session yields the worker between
    // requests, so it cannot starve its siblings on a small pool.
    SchedulePumpLocked();
    // The finish claim must share this critical section: with an
    // unlocked gap after pump_scheduled_ clears, the reader or Abort()
    // could claim the finish, fire on_closed, and let the server
    // destroy the session while this pool worker still needed mu_.
    on_closed = ClaimFinishLocked();
  }
  // `this` may be gone the moment the lock above is released (another
  // thread can now claim the finish): past this point, touch nothing
  // but the local copy of the callback.
  if (on_closed) on_closed();
}

void Session::Handle(Item item) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == SessionState::kClosed) return;  // late item, drop
  }
  switch (item.kind) {
    case ItemKind::kFrame:
      HandleFrame(std::move(item.frame));
      return;
    case ItemKind::kTimeout:
      SendGoodbye("idle timeout");
      Close();
      return;
    case ItemKind::kCorrupt:
      // A stream that lost framing cannot be re-synchronized: surface
      // the typed DataLoss, then close.
      SendError(item.status);
      Close();
      return;
    case ItemKind::kEof:
    case ItemKind::kReadError:
      Close();
      return;
    case ItemKind::kDrain:
      SendGoodbye("server draining");
      Close();
      return;
  }
}

void Session::HandleFrame(Frame frame) {
  switch (frame.type) {
    // Bound-ness is tracked by release_ (strand-only state), not by
    // SessionState: a draining session is still bound, and its queued
    // queries are answered by contract (session.h) — gating QUERY on
    // state()==kReady would reject them with a misleading error.
    case FrameType::kHello: {
      if (release_ != nullptr) {
        SendError(Status::FailedPrecondition(
            "session is already bound: HELLO must be the first and only "
            "binding frame"));
        return;
      }
      Status status = HandleHello(frame);
      if (!status.ok()) SendError(status);
      return;
    }
    case FrameType::kQuery: {
      if (release_ == nullptr) {
        SendError(Status::FailedPrecondition(
            "QUERY before a successful HELLO: bind a tenant and release "
            "first"));
        return;
      }
      Status status = HandleQuery(frame);
      if (!status.ok()) SendError(status);
      return;
    }
    case FrameType::kBye:
      SendGoodbye("bye");
      Close();
      return;
    default:
      // Server-to-client frame types arriving from a client are a
      // protocol violation, not a query-level error: close.
      SendError(Status::InvalidArgument(
          std::string("unexpected client frame '") +
          FrameTypeToken(frame.type) + "'"));
      Close();
      return;
  }
}

Status Session::HandleHello(const Frame& frame) {
  PCLEAN_ASSIGN_OR_RETURN(HelloRequest hello, ParseHello(frame.payload));
  // Mirror the CLI's pairing rule (`--ledger` with `--tenant`): a
  // ledger-backed server admits no anonymous analyst, and a ledger-less
  // server cannot honestly charge a named one.
  if (context_.ledger != nullptr && hello.tenant.empty()) {
    return Status::InvalidArgument(
        "this server charges queries against a budget ledger: HELLO must "
        "name a tenant");
  }
  if (context_.ledger == nullptr && !hello.tenant.empty()) {
    return Status::InvalidArgument(
        "tenant '" + hello.tenant +
        "' named, but the server has no ledger: start `pclean serve` with "
        "--ledger to charge queries");
  }
  const std::string& name =
      hello.release.empty() ? context_.default_release : hello.release;
  auto it = context_.releases->find(name);
  if (it == context_.releases->end()) {
    return Status::NotFound("release '" + name + "' is not served here");
  }
  tenant_ = hello.tenant;
  release_ = it->second;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == SessionState::kAwaitHello) state_ = SessionState::kReady;
  }
  WelcomeInfo info;
  info.relation = release_->relation;
  info.rows = release_->table.size();
  Send(Frame{FrameType::kWelcome, RenderWelcome(info)});
  return Status::OK();
}

Status Session::HandleQuery(const Frame& frame) {
  PCLEAN_ASSIGN_OR_RETURN(QueryRequest request,
                          ParseQueryRequest(frame.payload));
  const PrivateTable& table = release_->table;
  QueryOptions options;
  options.confidence = request.confidence;
  options.exec = context_.query_exec;
  std::ostringstream text;
  if (context_.ledger != nullptr) {
    // Options the query's route would refuse fail before the charge.
    PCLEAN_ASSIGN_OR_RETURN(ParsedSql parsed, ParseSql(request.sql));
    PCLEAN_RETURN_NOT_OK(ValidateQueryOptions(
        PlanQuery(table, parsed,
                  request.direct ? QueryMode::kDirect : QueryMode::kCorrected),
        options));
    // Charge-before-execute: the ε price is durable in the WAL before
    // any estimator runs. Concurrent sessions of one tenant serialize
    // on the ledger's atomic check-and-spend, so they can never jointly
    // overdraft. An overdraft surfaces as the typed ResourceExhausted.
    PCLEAN_ASSIGN_OR_RETURN(
        AdmissionTicket ticket,
        AdmitSqlQuery(*context_.ledger, tenant_, table, request.sql));
    text << RenderAdmissionLine(tenant_, ticket,
                                context_.ledger->BudgetOrZero(tenant_));
  }
  if (request.direct) {
    PCLEAN_ASSIGN_OR_RETURN(
        SqlResultSet rs, ExecuteSqlQueryDirect(table, request.sql,
                                               options.exec));
    RenderSqlResultText(rs, /*direct=*/true, options.confidence, text);
  } else {
    PCLEAN_ASSIGN_OR_RETURN(SqlResultSet rs,
                            ExecuteSqlQuery(table, request.sql, options));
    RenderSqlResultText(rs, /*direct=*/false, options.confidence, text);
  }
  Send(Frame{FrameType::kResult, text.str()});
  if (context_.queries_served != nullptr) {
    context_.queries_served->fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

void Session::SendError(const Status& status) {
  Send(Frame{FrameType::kError, RenderStatusPayload(status)});
}

void Session::SendGoodbye(const std::string& reason) {
  Send(Frame{FrameType::kGoodbye, reason});
}

void Session::Send(const Frame& frame) {
  if (write_failed_) return;
  Status status = WriteFrame(fd_, frame);
  if (status.ok()) return;
  if (status.IsResourceExhausted() && frame.type != FrameType::kError) {
    // The frame (e.g. a huge GROUP BY RESULT) exceeds the wire cap, but
    // the connection itself is healthy: answer with the typed error and
    // keep serving. (ERROR frames are exempt to bound the recursion;
    // they are always far under the cap.)
    SendError(status);
    return;
  }
  // The peer is gone (or the write path is under fault injection):
  // nothing more can usefully be said on this socket.
  write_failed_ = true;
  Close();
}

void Session::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == SessionState::kClosed) return;
  state_ = SessionState::kClosed;
  ::shutdown(fd_, SHUT_RDWR);
  space_cv_.notify_all();
}

bool Session::FinishedLocked() const {
  return state_ == SessionState::kClosed && queue_.empty() &&
         !pump_scheduled_ && reader_exited_ && !finish_claimed_;
}

std::function<void()> Session::ClaimFinishLocked() {
  if (!FinishedLocked()) return nullptr;
  finish_claimed_ = true;
  // The claimer returns a copy of the callback and invokes it only
  // after releasing mu_: on_closed takes the server's lock, and the
  // server calls session methods (which take mu_) under that lock —
  // invoking the callback under mu_ would invert the order. The copy
  // matters too: once on_closed fires the server may destroy the
  // session, so the member std::function cannot be touched mid-call.
  return context_.on_closed;
}

}  // namespace server
}  // namespace privateclean
