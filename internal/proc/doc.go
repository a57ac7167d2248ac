// Package proc reaps re-exec'd worker processes: the campaign's trial
// workers and appboot's hosted app workers start through it and are
// killed through it, so an orphaned reproduction cannot outlive its
// supervisor on either path. The two re-exec protocols stay with their
// callers: a campaign worker answers one request on stdin with one JSON
// reply, while an app worker is long-lived behind a ready handshake.
package proc
