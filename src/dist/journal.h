// higpu.campaign.jsonl/1 — the append-only campaign journal.
//
// Line 1 is a header object:
//
//   {"schema":"higpu.campaign.jsonl/1","fingerprint":<u64>,"scenarios":<n>}
//
// where `fingerprint` is dist::campaign_fingerprint over the campaign's
// serialized specs — resuming a journal written for a *different* campaign
// is refused, never silently merged. Every subsequent line is one
// ScenarioResult (exp::result_to_jsonl), appended and flushed the moment
// the coordinator accepts it, so a SIGKILL loses at most the line being
// written.
//
// Interleaved with result records the coordinator may append *auxiliary*
// records — observability sidecars, never resume state:
//
//   {"log":    {"worker":<id>,"level":<n>,"line":"..."}}   a LogRecord
//   {"flight": {"worker":<id>,"dump":<higpu.flight/1>}}    flight recorder
//
// Journals written by earlier builds may also hold one end-of-campaign
// {"fleet": <higpu.metrics/1>} line. Nothing writes it any more, but the
// scan still skips it, so those journals resume.
//
// scan_journal skips aux records (counting them in Scan::aux_records); they
// carry no scenario results, so resume semantics are unchanged.
//
// Scanning for resume is strict where it matters and lenient only where a
// crash legitimately leaves debris:
//   * a malformed *complete* line (parse error, bad record) throws
//     JournalError naming the record number — corruption is loud;
//   * a torn final line with no trailing newline (the expected artifact of
//     SIGKILL mid-append) is dropped and reported via Scan::torn_tail;
//   * a duplicate scenario index is accepted only if deterministically
//     identical to the first occurrence (a re-dispatched unit whose first
//     result raced the crash), otherwise it throws.
#pragma once

#include <map>
#include <stdexcept>
#include <string>

#include "common/jsonl.h"
#include "exp/campaign.h"

namespace higpu::dist {

constexpr const char* kJournalSchema = "higpu.campaign.jsonl/1";

class JournalError : public std::runtime_error {
 public:
  explicit JournalError(const std::string& what) : std::runtime_error(what) {}
};

/// One worker log line, the body of a {"log": ...} aux record.
struct LogRecord {
  u32 worker = 0;
  u32 level = 0;  // LogLevel enumerator value
  std::string line;
};

template <FieldsOf<LogRecord> S, class V>
void visit_fields(S& r, V&& v) {
  v("worker", r.worker);
  v("level", r.level);
  v("line", r.line);
}

/// Everything a resume needs from an existing journal.
struct Scan {
  u64 fingerprint = 0;
  u64 scenarios = 0;
  /// Completed results keyed by scenario index.
  std::map<u32, exp::ScenarioResult> results;
  /// A final line without '\n' was discarded (crash artifact).
  bool torn_tail = false;
  /// Auxiliary records (log / flight, and fleet from older journals)
  /// skipped during the scan.
  u64 aux_records = 0;
};

/// Parse an existing journal. Throws JournalError (with the journal path
/// and offending record number in the message) on a missing/malformed
/// header or any corrupted complete record.
Scan scan_journal(const std::string& path);

/// The coordinator's append side: writes the header on creation, then one
/// flushed line per accepted result.
class Journal {
 public:
  /// Truncates `path` and writes a fresh header.
  static Journal create(const std::string& path, u64 fingerprint,
                        u64 scenarios);
  /// Opens `path` for appending after a successful scan (header verified
  /// by the caller via scan_journal).
  static Journal append_to(const std::string& path);

  void add(const exp::ScenarioResult& result);
  /// Append the {"log": ...} aux record of one worker log line.
  void add_log(const LogRecord& rec);
  /// Append one auxiliary record (a complete single-line JSON object with a
  /// top-level "log" or "flight" key — see the schema note above).
  void add_aux(const std::string& json_line);
  u64 records_written() const { return records_; }
  const std::string& path() const { return path_; }

 private:
  Journal(JsonlWriter writer, std::string path)
      : writer_(std::move(writer)), path_(std::move(path)) {}

  JsonlWriter writer_;
  std::string path_;
  u64 records_ = 0;
};

}  // namespace higpu::dist
