// Command tool proves the onepool gate: commands own their process and
// may start goroutines (servers, signal handlers).
package main

func main() {
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
}
