// Package ind exercises the onepool analyzer outside the pool's
// package: every go statement is flagged, nested ones included.
package ind

// exportAll fans out by hand instead of calling relstore.Parallel.
func exportAll(n int, fn func(int)) {
	for i := 0; i < n; i++ {
		go fn(i) // want `go statement outside relstore.Parallel`
	}
}

// nested hides a goroutine inside a closure.
func nested(fn func()) func() {
	return func() {
		go fn() // want `go statement outside relstore.Parallel`
	}
}

// initAsync is a package-level initializer that starts a goroutine.
var initAsync = func(fn func()) {
	go fn() // want `go statement outside relstore.Parallel`
}

// sequential starts nothing and is not flagged.
func sequential(n int, fn func(int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}
