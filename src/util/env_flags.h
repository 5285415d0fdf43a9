// Environment-variable based knobs for bench/example binaries.
//
// Benches train RL policies; their iteration counts are deliberately small by
// default so the full suite completes in minutes, and can be raised via e.g.
//   DECIMA_TRAIN_ITERS=2000 ./bench_fig09_spark_cluster
#pragma once

namespace decima {

// Returns the integer value of the environment variable `name`, or
// `fallback` if unset or unparsable.
int env_int(const char* name, int fallback);

}  // namespace decima
