#include "src/common/prof.h"

#include <cstdio>

namespace karousos {

std::string AuditProfileToJson(const AuditProfile& profile) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"preprocess_seconds\": %.6f, \"reexec_seconds\": %.6f, "
                "\"postprocess_seconds\": %.6f, \"total_seconds\": %.6f, "
                "\"read_seconds\": %.6f, \"decode_seconds\": %.6f, "
                "\"arena_bytes\": %zu, \"advice_index_entries\": %zu, "
                "\"ops_executed\": %zu, \"ops_per_second\": %.0f}",
                profile.preprocess_seconds, profile.reexec_seconds,
                profile.postprocess_seconds, profile.total_seconds, profile.read_seconds,
                profile.decode_seconds, profile.arena_bytes,
                profile.advice_index_entries, profile.ops_executed, profile.OpsPerSecond());
  return buf;
}

}  // namespace karousos
