package gedlib

// sessionCount reports how many graphs the graph-keyed shim holds a
// session for.
func (e *Engine) sessionCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.sessions)
}

// SessionCount exposes sessionCount to the external test package.
var SessionCount = (*Engine).sessionCount
