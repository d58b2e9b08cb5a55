package kubelet

// SyncPods runs one level-triggered sync, as the sync timer does.
func (k *Kubelet) SyncPods() { k.syncPods() }
