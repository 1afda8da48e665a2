// ScenarioResult <-> JSONL record conversion (higpu.campaign.jsonl/1).
//
// One ScenarioResult is one self-contained JSON object on one line. Every
// deterministic field round-trips bit-exactly — they are all integers,
// booleans, enums (serialized by name) or strings — which is what lets the
// distributed campaign service journal results as they stream in and still
// honor the campaign determinism contract on resume
// (ScenarioResult::deterministic_fields_equal against a jobs=1 golden).
// The non-deterministic wall-clock fields travel as doubles for reporting
// and are excluded from that equality, exactly as in the in-process runner.
#pragma once

#include <string>

#include "common/table.h"
#include "exp/campaign.h"

namespace higpu::exp {

/// Serialize one result as a single-line JSON object (no trailing newline).
/// The `error` string may contain newlines/quotes/control characters from
/// exception text; they are escaped so the record never spans lines.
std::string result_to_jsonl(const ScenarioResult& r);

/// Parse a record produced by result_to_jsonl. Throws std::runtime_error
/// (with the offending field or parse offset) on malformed input — a
/// corrupted journal line is always a loud failure, never a silent skip.
ScenarioResult result_from_jsonl(const std::string& line);

/// Nested result members as result_to_jsonl writes them (records keyed by
/// visit_fields), shared with CampaignResult::to_json so the two agree.
void write_json(JsonWriter& jw, const core::DiversityReport& d);
void write_json(JsonWriter& jw, const std::vector<obs::SmCycles>& profile);
void write_json(JsonWriter& jw, const StatSet& stats);

}  // namespace higpu::exp
