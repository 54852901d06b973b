// Sanctioned lock-discipline idioms: lockdisc must pass this file with zero
// diagnostics.
package clean

import "sync"

// Store is the canonical guarded aggregate: annotated fields, defer-unlock
// accessors, a caller-holds helper, and an RWMutex read path.
type Store struct {
	mu sync.RWMutex
	//depburst:guardedby mu
	vals map[string]int
	//depburst:guardedby mu
	total int
}

// NewStore builds the store pre-publication: fresh values need no lock.
func NewStore() *Store {
	s := &Store{vals: map[string]int{}}
	s.total = 0
	return s
}

// Put takes the write lock and delegates to the locked helper.
func (s *Store) Put(k string, v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.put(k, v)
}

// put requires the caller to hold mu.
//
//depburst:locked mu
func (s *Store) put(k string, v int) {
	s.vals[k] = v
	s.total += v
}

// Get reads under the read lock, sorting nothing and mutating nothing.
func (s *Store) Get(k string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.vals[k]
}

// Flights mirrors the server's embedded-mutex map guard.
type Flights struct {
	reg struct {
		sync.Mutex
		//depburst:guardedby Mutex
		m map[string]bool
	}
}

// Mark locks through the promoted method.
func (f *Flights) Mark(k string) {
	f.reg.Lock()
	if f.reg.m == nil {
		f.reg.m = map[string]bool{}
	}
	f.reg.m[k] = true
	f.reg.Unlock()
}
