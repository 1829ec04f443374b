package verbs

import (
	"reflect"

	"repro/internal/sim"
)

// OwnQueues returns the completion and placement queues the front end of
// qp, a provider QP that embeds Front, holds right now, without building
// any: nil for each one not yet needed.
func OwnQueues(qp QP) (scq, rcq *CQ, places *sim.Queue[Placement]) {
	f := reflect.ValueOf(qp).Elem().FieldByName("Front").Addr().Interface().(*Front)
	return f.scq, f.rcq, f.places
}
