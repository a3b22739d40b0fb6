package core

// setCrashHook installs a simulated-crash schedule on sys before its first
// Flush. hook is consulted at "stage-a" (after batching, before
// journaling), "journal" (after the journal commit, before dispatch) and
// "dispatch" (after the partitions executed, before any reply) of every
// live epoch; returning true kills the root there, silently, as a killed
// process would stop. Replayed epochs consult no hook.
func (sys *System) setCrashHook(hook func(point string, epoch uint64) bool) *System {
	sys.crashHook = hook
	return sys
}
