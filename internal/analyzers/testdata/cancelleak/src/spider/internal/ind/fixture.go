// Package ind exercises the cancelleak analyzer: goroutine sends in the
// extraction and merge layer need a cancellation path.
package ind

// nakedSend blocks forever once the receiver gives up.
func nakedSend(out chan int) {
	go func() {
		out <- 1 // want `goroutine sends on out with no cancellation path`
	}()
}

// selectDone pairs the send with a done receive: the PR 6 fix shape.
func selectDone(out chan int, done chan struct{}) {
	go func() {
		select {
		case out <- 1:
		case <-done:
		}
	}()
}

// nonblocking uses a default clause: the send can never hang.
func nonblocking(out chan int) {
	go func() {
		select {
		case out <- 1:
		default:
		}
	}()
}

// buffered sends on a channel provably sized for the send.
func buffered() chan int {
	out := make(chan int, 1)
	go func() {
		out <- 1
	}()
	return out
}

// workerSized is buffered with a runtime capacity (sized to senders).
func workerSized(n int) chan int {
	out := make(chan int, n)
	go func() {
		out <- 1
	}()
	return out
}

// unbuffered allocates in scope but without capacity: still a leak.
func unbuffered() chan int {
	out := make(chan int)
	go func() {
		out <- 1 // want `goroutine sends on out with no cancellation path`
	}()
	return out
}

// guardedBody keeps the guard only for the select's own comm clauses: a
// send in a case body is a fresh decision point.
func guardedBody(out chan int, done chan struct{}) {
	go func() {
		select {
		case <-done:
			return
		default:
			out <- 1 // want `goroutine sends on out with no cancellation path`
		}
	}()
}
