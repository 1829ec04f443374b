package sim

type Proc struct{}

type Engine struct{}

func (e *Engine) Go(name string, fn func(p *Proc)) *Proc { return &Proc{} }

func (e *Engine) AfterArg(d int64, fn func(any), arg any) {}

// Other has a Go method too; only Engine's starts a process.
type Other struct{}

func (o *Other) Go(name string) {}
