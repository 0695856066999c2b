#ifndef SQLFACIL_UTIL_DRAIN_H_
#define SQLFACIL_UTIL_DRAIN_H_

namespace sqlfacil {
namespace train {

/// Graceful-drain support for training loops. A SIGTERM/SIGINT does not kill
/// the process mid-step: the handler only flips an atomic flag, and the
/// trainers' epoch driver (`models::RunEpochs`) polls `DrainRequested()`
/// after every *completed* batch. On a drain it writes a mid-epoch snapshot
/// (when snapshotting is enabled) and returns early, so the in-flight step
/// is never torn and the next run resumes bit-identically.

/// Installs the SIGTERM/SIGINT handlers (idempotent; SA_RESTART so blocking
/// syscalls in worker threads are not interrupted). Call once near process
/// start in binaries that train.
void InstallSignalDrain();

/// True once a drain has been requested (by signal or RequestDrain).
bool DrainRequested();

/// Programmatic drain request — what the signal handler does, exposed for
/// tests that exercise the mid-epoch snapshot path without raising signals.
void RequestDrain();

/// Clears the drain flag (tests; and binaries that train multiple models and
/// want a fresh flag per run).
void ClearDrain();

}  // namespace train
}  // namespace sqlfacil

#endif  // SQLFACIL_UTIL_DRAIN_H_
