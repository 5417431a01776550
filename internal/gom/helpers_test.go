package gom

// Observers returns how many observers a mutation of ob reaches.
func (ob *ObjectBase) Observers() int {
	ob.mu.RLock()
	defer ob.mu.RUnlock()
	return len(ob.observers)
}
