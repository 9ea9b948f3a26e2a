#ifndef PERFBENCH_HOST_SPEED_H_
#define PERFBENCH_HOST_SPEED_H_

namespace perfbench {

/// The reference loop's time at the host speed `setup_s` is expressed in:
/// about its median on the 4-core x86 VM the benchmark was tuned on.
inline constexpr double kReferenceLoopS = 0.25;

/// \brief Runs a fixed reference loop and returns its wall time in seconds.
///
/// The loop is a seeded mix of ordered-map inserts with string values,
/// hash-map updates and a sort over 150 000 keys.  It uses the standard
/// library only, so no change to the engine moves it, and it allocates and
/// chases pointers as `TxnEngine::Create` does, so it slows down with the
/// host as a Create does.  README.md ("setup_s") says how it is used.
double ReferenceLoopSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_HOST_SPEED_H_
