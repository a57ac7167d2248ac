// Package proc starts and reaps child processes.
//
// WorkerAttr, Terminate and KillTree reap re-exec'd workers: the
// campaign's trial workers and appboot's hosted app workers start and
// die through them, so an orphaned reproduction cannot outlive its
// supervisor on either path.
//
// Start and Child are the one lifecycle of a long-lived child behind a
// ready line: start a command the caller built, copy the child's output
// to one writer, return once it prints a line the caller accepts, and
// stop it with SIGTERM, then KillTree. appboot runs its app workers
// (cbserverd -app-worker) this way, and the scenario harness runs
// cbserverd itself. The campaign's trial-worker protocol, one request
// on stdin and one JSON reply, stays with the campaign.
package proc
