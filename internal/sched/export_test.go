package sched

// SetCursorCheck installs fn as the hook executePhase shows every
// state it scans (see cursorCheck) and returns a function restoring
// the previous hook.
func SetCursorCheck(fn func(m Machine, settled int)) (restore func()) {
	prev := cursorCheck
	cursorCheck = fn
	return func() { cursorCheck = prev }
}
