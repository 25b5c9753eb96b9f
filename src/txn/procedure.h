#ifndef TPART_TXN_PROCEDURE_H_
#define TPART_TXN_PROCEDURE_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/record.h"
#include "txn/txn.h"

namespace tpart {

/// Data-access surface a stored procedure sees while executing. The
/// implementation differs per engine (serial reference, T-Part runtime,
/// simulators) but the procedure body is identical — this is what
/// makes the commit decision and written values deterministic (§2.1).
class TxnContext {
 public:
  virtual ~TxnContext() = default;

  /// Value of `key` as of this transaction's place in the total order.
  /// `key` must be in the declared read set.
  virtual Result<Record> Get(ObjectKey key) = 0;

  /// Buffers a write of `key`. `key` must be in the declared write set.
  /// Writes become visible only if the procedure returns OK.
  virtual Status Put(ObjectKey key, Record record) = 0;

  /// Procedure parameters from the TxnSpec.
  virtual const ParamVec& params() const = 0;

  /// Appends a value to the transaction's deterministic output.
  virtual void EmitOutput(std::int64_t value) = 0;

  /// Moves the accumulated output out (called once, after execution).
  virtual std::vector<std::int64_t> TakeOutput() = 0;
};

/// Convenience base storing params and output; engine contexts derive
/// from this and implement only Get/Put.
class BasicTxnContext : public TxnContext {
 public:
  explicit BasicTxnContext(const ParamVec* params) : params_(params) {}

  const ParamVec& params() const override { return *params_; }
  void EmitOutput(std::int64_t value) override { output_.push_back(value); }
  std::vector<std::int64_t> TakeOutput() override { return std::move(output_); }

 private:
  const ParamVec* params_;
  std::vector<std::int64_t> output_;
};

/// Body of a stored procedure. Returning Status::Aborted is the *only*
/// way a transaction aborts in a deterministic system ("there is no reason
/// other than the stored procedure logic that can cause the transaction to
/// abort", §2.1). Any other non-OK status is an engine invariant failure.
using ProcedureFn = std::function<Status(TxnContext&)>;

/// Registry mapping ProcId -> procedure body. Each workload registers its
/// procedures once; all engines share the registry so every engine runs
/// byte-identical logic.
class ProcedureRegistry {
 public:
  /// Registers `fn` under `id`. Overwrites any previous registration.
  void Register(ProcId id, std::string name, ProcedureFn fn);

  /// Looks up a procedure body; nullptr when unregistered.
  const ProcedureFn* Find(ProcId id) const;

  /// Name of a registered procedure ("<unknown>" otherwise).
  const std::string& Name(ProcId id) const;

  std::size_t size() const { return procs_.size(); }

 private:
  struct Entry {
    std::string name;
    ProcedureFn fn;
  };
  std::unordered_map<ProcId, Entry> procs_;
};

/// Runs `spec`'s procedure against `ctx` using `registry`. Returns the
/// TxnResult (committed=false when the procedure aborted by logic).
/// Engine-level failures (unregistered procedure, read outside the
/// declared set) surface as a non-OK status.
Result<TxnResult> RunProcedure(const ProcedureRegistry& registry,
                               const TxnSpec& spec, TxnContext& ctx);

}  // namespace tpart

#endif  // TPART_TXN_PROCEDURE_H_
