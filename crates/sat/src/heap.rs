//! Indexed max-heap over variables keyed by VSIDS activity.
//!
//! This mirrors MiniSat's `order_heap`: the solver needs to (a) pop the
//! highest-activity unassigned variable, (b) reinsert variables when they are
//! unassigned on backtracking, and (c) sift a variable up when its activity
//! is bumped — all in `O(log n)`.

/// An indexed binary max-heap of variable indices ordered by an external
/// activity array.
#[derive(Debug, Default, Clone)]
pub(crate) struct ActivityHeap {
    /// Heap of variable indices.
    heap: Vec<usize>,
    /// Position of each variable in `heap`, or `usize::MAX` if absent.
    position: Vec<usize>,
}

const ABSENT: usize = usize::MAX;

impl ActivityHeap {
    pub(crate) fn new() -> Self {
        ActivityHeap::default()
    }

    /// Ensures positions exist for `n` variables.
    pub(crate) fn grow_to(&mut self, n: usize) {
        if self.position.len() < n {
            self.position.resize(n, ABSENT);
        }
    }

    pub(crate) fn contains(&self, var: usize) -> bool {
        self.position.get(var).copied().unwrap_or(ABSENT) != ABSENT
    }

    /// Inserts a variable (no-op if already present).
    pub(crate) fn insert(&mut self, var: usize, activity: &[f64]) {
        self.grow_to(var + 1);
        if self.contains(var) {
            return;
        }
        self.heap.push(var);
        self.position[var] = self.heap.len() - 1;
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Removes every variable, in time linear in the heap's size (not in the
    /// number of variables).
    pub(crate) fn clear(&mut self) {
        for &var in &self.heap {
            self.position[var] = ABSENT;
        }
        self.heap.clear();
    }

    /// Removes and returns the variable with the highest activity.
    pub(crate) fn pop_max(&mut self, activity: &[f64]) -> Option<usize> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().expect("non-empty");
        self.position[top] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.position[last] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// Restores the heap property after `var`'s activity increased.
    pub(crate) fn decrease_key(&mut self, var: usize, activity: &[f64]) {
        if let Some(&pos) = self.position.get(var) {
            if pos != ABSENT {
                self.sift_up(pos, activity);
            }
        }
    }

    fn sift_up(&mut self, mut index: usize, activity: &[f64]) {
        while index > 0 {
            let parent = (index - 1) / 2;
            if activity[self.heap[index]] > activity[self.heap[parent]] {
                self.swap(index, parent);
                index = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut index: usize, activity: &[f64]) {
        loop {
            let left = 2 * index + 1;
            let right = 2 * index + 2;
            let mut largest = index;
            if left < self.heap.len() && activity[self.heap[left]] > activity[self.heap[largest]] {
                largest = left;
            }
            if right < self.heap.len() && activity[self.heap[right]] > activity[self.heap[largest]]
            {
                largest = right;
            }
            if largest == index {
                break;
            }
            self.swap(index, largest);
            index = largest;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.position[self.heap[a]] = a;
        self.position[self.heap[b]] = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_activity_order() {
        let activity = vec![0.5, 3.0, 1.0, 2.0];
        let mut heap = ActivityHeap::new();
        for v in 0..4 {
            heap.insert(v, &activity);
        }
        assert_eq!(heap.pop_max(&activity), Some(1));
        assert_eq!(heap.pop_max(&activity), Some(3));
        assert_eq!(heap.pop_max(&activity), Some(2));
        assert_eq!(heap.pop_max(&activity), Some(0));
        assert_eq!(heap.pop_max(&activity), None);
    }

    #[test]
    fn duplicate_insert_is_a_no_op() {
        let activity = vec![1.0, 2.0];
        let mut heap = ActivityHeap::new();
        heap.insert(0, &activity);
        heap.insert(0, &activity);
        heap.insert(1, &activity);
        assert_eq!(heap.pop_max(&activity), Some(1));
        assert_eq!(heap.pop_max(&activity), Some(0));
        assert_eq!(heap.pop_max(&activity), None);
    }

    #[test]
    fn decrease_key_reorders_after_bump() {
        let mut activity = vec![1.0, 2.0, 3.0];
        let mut heap = ActivityHeap::new();
        for v in 0..3 {
            heap.insert(v, &activity);
        }
        // Bump variable 0 above everything else.
        activity[0] = 10.0;
        heap.decrease_key(0, &activity);
        assert_eq!(heap.pop_max(&activity), Some(0));
    }

    #[test]
    fn clear_empties_the_heap_for_reuse() {
        let activity = vec![1.0, 2.0, 3.0];
        let mut heap = ActivityHeap::new();
        heap.insert(0, &activity);
        heap.insert(2, &activity);
        heap.clear();
        assert!(!heap.contains(0) && !heap.contains(2));
        assert_eq!(heap.pop_max(&activity), None);
        heap.insert(1, &activity);
        assert_eq!(heap.pop_max(&activity), Some(1));
    }

    #[test]
    fn reinsertion_after_pop() {
        let activity = vec![1.0, 2.0];
        let mut heap = ActivityHeap::new();
        heap.insert(0, &activity);
        heap.insert(1, &activity);
        assert_eq!(heap.pop_max(&activity), Some(1));
        heap.insert(1, &activity);
        assert_eq!(heap.pop_max(&activity), Some(1));
    }
}
