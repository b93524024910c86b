package edm

import "context"

// CheckWiring exposes setup's checking decisions to the external tests,
// which can import the packages that build specs (experiment, server):
// whether the event-stream checker is installed as the cluster's
// recorder, and whether the cluster was built to run its own state
// audit as well.
func CheckWiring(spec Spec, opts ...RunOption) (checker, clusterAudit bool, err error) {
	var o runOptions
	for _, fn := range opts {
		fn(&o)
	}
	env, err := setup(context.Background(), spec, &o)
	if err != nil {
		return false, false, err
	}
	defer env.release()
	cfg := env.cl.Config()
	return env.ck != nil && cfg.Recorder == env.ck, cfg.SelfCheck, nil
}
