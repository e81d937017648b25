//! Process and thread bookkeeping.

use kscope_syscalls::{Pid, Tid};

/// One thread's identity within the task table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskInfo {
    /// The thread id.
    pub tid: Tid,
    /// The owning process (thread-group) id.
    pub pid: Pid,
    /// Human-readable name (`comm`).
    pub name: String,
}

/// Allocates pids/tids and records thread→process membership.
///
/// # Examples
///
/// ```
/// use kscope_kernel::TaskTable;
///
/// let mut tasks = TaskTable::new();
/// let server = tasks.spawn_process("memcached");
/// let worker = tasks.spawn_thread(server, "worker-0").unwrap();
/// assert_eq!(tasks.process_of(worker), Some(server));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TaskTable {
    tasks: Vec<TaskInfo>,
    next_id: u32,
}

impl TaskTable {
    /// Creates an empty table; ids start at 1000 (low ids look like system
    /// daemons in traces and confuse no one this way).
    pub fn new() -> TaskTable {
        TaskTable {
            tasks: Vec::new(),
            next_id: 1000,
        }
    }

    fn alloc_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Creates a new process; its main thread has `tid == pid`.
    pub fn spawn_process(&mut self, name: impl Into<String>) -> Pid {
        let pid = self.alloc_id();
        self.tasks.push(TaskInfo {
            tid: pid,
            pid,
            name: name.into(),
        });
        pid
    }

    /// Creates an additional thread in `pid`'s thread group.
    ///
    /// Returns `None` if `pid` does not exist.
    pub fn spawn_thread(&mut self, pid: Pid, name: impl Into<String>) -> Option<Tid> {
        self.tasks.iter().find(|t| t.pid == pid && t.tid == pid)?;
        let tid = self.alloc_id();
        self.tasks.push(TaskInfo {
            tid,
            pid,
            name: name.into(),
        });
        Some(tid)
    }

    /// The process a thread belongs to.
    pub fn process_of(&self, tid: Tid) -> Option<Pid> {
        self.tasks.iter().find(|t| t.tid == tid).map(|t| t.pid)
    }

    /// Metadata for a thread.
    pub fn info(&self, tid: Tid) -> Option<&TaskInfo> {
        self.tasks.iter().find(|t| t.tid == tid)
    }

    /// Total threads across all processes.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when no tasks exist.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_process_creates_main_thread() {
        let mut tasks = TaskTable::new();
        let pid = tasks.spawn_process("srv");
        assert_eq!(tasks.process_of(pid), Some(pid));
        assert_eq!(tasks.len(), 1);
        assert_eq!(tasks.info(pid).unwrap().name, "srv");
    }

    #[test]
    fn threads_share_the_process_id() {
        let mut tasks = TaskTable::new();
        let pid = tasks.spawn_process("srv");
        let t1 = tasks.spawn_thread(pid, "w0").unwrap();
        let t2 = tasks.spawn_thread(pid, "w1").unwrap();
        assert_ne!(t1, t2);
        assert_eq!(tasks.process_of(t1), Some(pid));
        assert_eq!(tasks.process_of(t2), Some(pid));
        assert_eq!(tasks.len(), 3);
    }

    #[test]
    fn spawn_thread_in_unknown_process_fails() {
        let mut tasks = TaskTable::new();
        assert_eq!(tasks.spawn_thread(42, "w"), None);
    }

    #[test]
    fn ids_are_unique_across_processes() {
        let mut tasks = TaskTable::new();
        let a = tasks.spawn_process("a");
        let b = tasks.spawn_process("b");
        let ta = tasks.spawn_thread(a, "wa").unwrap();
        assert!(a != b && b != ta && a != ta);
    }
}
