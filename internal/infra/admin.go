package infra

import (
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/sim"
)

// Admin is the cluster's administrative client — the "user" of the
// infrastructure. Workloads drive the cluster through it. The admin always
// uses quorum reads so that workload actions themselves are never confused
// by cache staleness; staleness is the system-under-test's problem.
type Admin struct {
	c    *Cluster
	conn *client.Conn
	uids cluster.UIDGen
}

// AdminID is the admin client's network identity.
const AdminID sim.NodeID = "admin"

// newAdmin registers an admin client over conn that issues UIDs from uids:
// a fresh connection and generator in New, the captured ones in a restore.
func newAdmin(c *Cluster, conn *client.Conn, uids cluster.UIDGen) *Admin {
	a := &Admin{c: c, conn: conn, uids: uids}
	c.World.Network().Register(AdminID, sim.HandlerFunc(func(m *sim.Message) {
		a.conn.HandleMessage(m)
	}))
	return a
}

// Conn exposes the raw connection for custom workload steps.
func (a *Admin) Conn() *client.Conn { return a.conn }

// CreatePod creates a pod; empty node leaves it unscheduled (scheduler
// path), otherwise it is bound directly.
func (a *Admin) CreatePod(name, node, image string, done func(error)) {
	pod := cluster.NewPod(name, a.uids.Next(), cluster.PodSpec{
		NodeName: node,
		Phase:    cluster.PodPending,
		Image:    image,
	})
	a.conn.Create(pod, func(_ *cluster.Object, err error) { callback(done, err) })
}

// MarkPodDeleted sets the pod's DeletionTimestamp (two-phase deletion mark,
// e1 in Figure 3c).
func (a *Admin) MarkPodDeleted(name string, done func(error)) {
	a.conn.Get(cluster.KindPod, name, true, func(pod *cluster.Object, found bool, err error) {
		if err != nil || !found {
			callback(done, errOrNotFound(err, found))
			return
		}
		upd := pod.Clone()
		upd.Meta.DeletionTimestamp = int64(a.c.World.Now())
		a.conn.Update(upd, func(_ *cluster.Object, err error) { callback(done, err) })
	})
}

// MigratePod performs the Figure 2 rolling-upgrade move: mark+delete the
// pod, wait for it to disappear from ground truth, then re-create it (same
// name, new UID) bound to toNode.
func (a *Admin) MigratePod(name, toNode, image string, done func(error)) {
	a.MarkPodDeleted(name, func(err error) {
		if err != nil {
			callback(done, err)
			return
		}
		a.waitPodGone(name, 64, func(err error) {
			if err != nil {
				callback(done, err)
				return
			}
			a.CreatePod(name, toNode, image, done)
		})
	})
}

// waitPodGone polls ground truth until the pod object disappears (the
// kubelet finalizes it) or attempts run out.
func (a *Admin) waitPodGone(name string, attempts int, done func(error)) {
	a.conn.Get(cluster.KindPod, name, true, func(_ *cluster.Object, found bool, err error) {
		if err == nil && !found {
			callback(done, nil)
			return
		}
		if attempts <= 0 {
			callback(done, errTimeoutWaiting{what: "pod " + name + " deletion"})
			return
		}
		a.c.World.Kernel().Schedule(25*sim.Millisecond, func() {
			a.waitPodGone(name, attempts-1, done)
		})
	})
}

// CreatePVC creates a bound claim owned by a pod.
func (a *Admin) CreatePVC(name, ownerPod string, done func(error)) {
	pvc := cluster.NewPVC(name, a.uids.Next(), cluster.PVCSpec{
		OwnerPod: ownerPod,
		Phase:    cluster.PVCBound,
		SizeGB:   10,
	})
	a.conn.Create(pvc, func(_ *cluster.Object, err error) { callback(done, err) })
}

// DeleteNode removes a node object from the cluster state and kills the
// machine behind it (containers die, kubelet process stops). This is the
// "node deleted" event of Kubernetes-56261.
func (a *Admin) DeleteNode(name string, done func(error)) {
	if kl, ok := a.c.Kubelet[name]; ok {
		_ = a.c.World.Crash(kl.ID())
	}
	if host, ok := a.c.Hosts[name]; ok {
		host.Reset()
	}
	a.conn.Delete(cluster.KindNode, name, 0, func(err error) { callback(done, err) })
}

// CreateCassandra creates the CassandraCluster CR.
func (a *Admin) CreateCassandra(name string, replicas int, done func(error)) {
	cr := cluster.NewCassandra(name, a.uids.Next(), cluster.CassandraSpec{Replicas: replicas})
	a.conn.Create(cr, func(_ *cluster.Object, err error) { callback(done, err) })
}

// ScaleCassandra sets the CR's desired replica count.
func (a *Admin) ScaleCassandra(name string, replicas int, done func(error)) {
	a.conn.Get(cluster.KindCassandra, name, true, func(cr *cluster.Object, found bool, err error) {
		if err != nil || !found {
			callback(done, errOrNotFound(err, found))
			return
		}
		upd := cr.Clone()
		upd.Cassandra.Replicas = replicas
		a.conn.Update(upd, func(_ *cluster.Object, err error) { callback(done, err) })
	})
}

func callback(done func(error), err error) {
	if done != nil {
		done(err)
	}
}

type errTimeoutWaiting struct{ what string }

func (e errTimeoutWaiting) Error() string { return "admin: timed out waiting for " + e.what }

type errNotFoundT struct{}

func (errNotFoundT) Error() string { return "admin: object not found" }

func errOrNotFound(err error, found bool) error {
	if err != nil {
		return err
	}
	if !found {
		return errNotFoundT{}
	}
	return nil
}
