#include "dist/journal.h"

#include <cstdio>

#include <sys/types.h>
#include <unistd.h>

#include "exp/result_io.h"

namespace higpu::dist {

namespace {

/// The journal's first line.
struct Header {
  std::string schema = kJournalSchema;
  u64 fingerprint = 0;
  u64 scenarios = 0;
};

template <FieldsOf<Header> S, class V>
void visit_fields(S& h, V&& v) {
  v("schema", h.schema);
  v("fingerprint", h.fingerprint);
  v("scenarios", h.scenarios);
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw JournalError("cannot open journal '" + path + "'");
  std::string text;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) throw JournalError("read error on journal '" + path + "'");
  return text;
}

}  // namespace

Scan scan_journal(const std::string& path) {
  const std::string text = read_file(path);

  Scan scan;
  size_t pos = 0;
  u64 line_no = 0;  // 1-based; line 1 is the header
  while (pos < text.size()) {
    const size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      // No trailing newline: the append that was in flight when the writer
      // was killed. Losing it is the contract — the scenario re-runs.
      scan.torn_tail = true;
      break;
    }
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++line_no;
    if (line.empty()) continue;

    if (line_no == 1) {
      // A header that does not parse, or lacks a field, names the journal.
      try {
        const JsonValue header = parse_json(line);
        const std::string schema = header.get_string_or("schema", "");
        if (schema != kJournalSchema)
          throw JournalError("journal '" + path + "' has schema '" + schema +
                             "', expected '" + kJournalSchema + "'");
        scan.fingerprint = header.get_u64("fingerprint");
        scan.scenarios = header.get_u64("scenarios");
      } catch (const JsonError& e) {
        throw JournalError("journal '" + path + "' header is malformed: " +
                           e.what());
      }
      continue;
    }

    // Auxiliary observability records (worker logs, flight-recorder dumps,
    // and the fleet metrics line of journals from earlier builds) interleave
    // with results; they carry no resume state, so the scan counts and
    // skips them.
    if (line.rfind("{\"log\":", 0) == 0 ||
        line.rfind("{\"flight\":", 0) == 0 ||
        line.rfind("{\"fleet\":", 0) == 0) {
      ++scan.aux_records;
      continue;
    }

    exp::ScenarioResult result;
    try {
      result = exp::result_from_jsonl(line);
    } catch (const std::exception& e) {
      // A complete-but-unparseable line is corruption, not crash debris.
      throw JournalError("journal '" + path + "' record " +
                         std::to_string(line_no - 1) + " (line " +
                         std::to_string(line_no) + ") is corrupted: " +
                         e.what());
    }
    if (result.index >= scan.scenarios)
      throw JournalError("journal '" + path + "' record " +
                         std::to_string(line_no - 1) +
                         " has scenario index " +
                         std::to_string(result.index) +
                         " outside the campaign's " +
                         std::to_string(scan.scenarios) + " scenarios");
    const auto [it, inserted] = scan.results.emplace(result.index, result);
    // A re-dispatched unit can legitimately land twice (first result raced
    // the crash); determinism makes the copies identical. Disagreeing
    // duplicates mean the journal is not what it claims to be.
    if (!inserted && !it->second.deterministic_fields_equal(result))
      throw JournalError("journal '" + path + "' record " +
                         std::to_string(line_no - 1) +
                         " duplicates scenario index " +
                         std::to_string(result.index) +
                         " with different deterministic fields");
  }
  if (line_no == 0 && !scan.torn_tail)
    throw JournalError("journal '" + path + "' is empty (no header line)");
  if (line_no == 0 && scan.torn_tail)
    throw JournalError("journal '" + path +
                       "' has a torn header line and no records");
  return scan;
}

Journal Journal::create(const std::string& path, u64 fingerprint,
                        u64 scenarios) {
  JsonlWriter writer(path, /*truncate=*/true);
  writer.append(exp::to_jsonl(
      Header{.fingerprint = fingerprint, .scenarios = scenarios}));
  return Journal(std::move(writer), path);
}

Journal Journal::append_to(const std::string& path) {
  // Trim a torn trailing line (SIGKILL mid-append) so the next record
  // starts on its own line instead of concatenating onto the debris.
  const std::string text = read_file(path);
  const size_t last_nl = text.rfind('\n');
  const size_t keep = last_nl == std::string::npos ? 0 : last_nl + 1;
  if (keep != text.size() && ::truncate(path.c_str(), static_cast<off_t>(keep)) != 0)
    throw JournalError("cannot trim torn tail of journal '" + path + "'");
  return Journal(JsonlWriter(path, /*truncate=*/false), path);
}

void Journal::add(const exp::ScenarioResult& result) {
  writer_.append(exp::result_to_jsonl(result));
  ++records_;
}

void Journal::add_log(const LogRecord& rec) {
  JsonWriter jw = JsonWriter::compact();
  jw.begin_object();
  jw.key("log");
  exp::write_value(jw, rec);
  jw.end_object();
  writer_.append(jw.str());
}

void Journal::add_aux(const std::string& json_line) {
  writer_.append(json_line);
}

}  // namespace higpu::dist
