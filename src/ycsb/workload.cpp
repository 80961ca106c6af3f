#include "ycsb/workload.h"

#include "support/check.h"

namespace mgc::ycsb {

void WorkloadSpec::validate() const {
  MGC_CHECK(record_count > 0);
  MGC_CHECK(client_threads >= 1);
  MGC_CHECK(pipeline_depth >= 1);
}

}  // namespace mgc::ycsb
