// Package relstore exercises the onepool analyzer at the pool's own
// import path: Parallel may start goroutines, nothing else may.
package relstore

import "sync"

// Parallel is the one pool; its go statement is the sanctioned one.
func Parallel(n int, fn func(int) error) error {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = fn(i)
		}()
	}
	wg.Wait()
	return nil
}

// Table is a stand-in receiver.
type Table struct{}

// Parallel on a type is not the pool.
func (Table) Parallel(fn func()) {
	go fn() // want `go statement outside relstore.Parallel`
}

// loadAsync starts a second pool beside Parallel.
func loadAsync(done chan<- struct{}) {
	go func() { // want `go statement outside relstore.Parallel`
		done <- struct{}{}
	}()
}
