//! Grouping syscalls into the request-oriented families of the paper.
//!
//! Section III of the paper argues that request-level behaviour is carried by
//! three families: the **receive** family (`read`, `recvfrom`, `recvmsg`, …),
//! the **send** family (`write`, `sendto`, `sendmsg`, …), and the **poll**
//! family (`epoll_wait`, `select`, `poll`). Everything else — setup syscalls
//! like `socket`/`bind`/`listen`, memory management, threading — is noise for
//! the purposes of request-level observability.

use core::fmt;

use crate::no::SyscallNo;

/// The coarse role a syscall plays in a request-response server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SyscallFamily {
    /// Receives request bytes: `read`, `recvfrom`, `recvmsg`.
    Receive,
    /// Sends response bytes: `write`, `writev`, `sendto`, `sendmsg`.
    Send,
    /// Waits for network events: `epoll_wait`, `select`.
    Poll,
    /// Establishes connections: `accept`, `accept4`.
    Accept,
    /// Socket / process lifecycle: `socket`, `bind`, `listen`, `connect`,
    /// `close`, `shutdown`, `clone`, `exit`, `epoll_ctl`, `epoll_create1`.
    Lifecycle,
    /// Anything else (memory, files, futexes, sleeps, …).
    Other,
}

impl SyscallFamily {
    /// Classifies a syscall by its *default* role.
    ///
    /// `read`/`write` are classified as Receive/Send here because in the
    /// studied workloads that use them (CloudSuite Data Caching and Web
    /// Search) they carry request traffic; workloads where they would be
    /// file I/O should use a [`SyscallProfile`](crate::SyscallProfile) to
    /// scope classification to their actual request syscalls.
    pub fn of(no: SyscallNo) -> SyscallFamily {
        match no {
            SyscallNo::READ | SyscallNo::RECVFROM | SyscallNo::RECVMSG => SyscallFamily::Receive,
            SyscallNo::WRITE | SyscallNo::WRITEV | SyscallNo::SENDTO | SyscallNo::SENDMSG => {
                SyscallFamily::Send
            }
            SyscallNo::EPOLL_WAIT | SyscallNo::SELECT => SyscallFamily::Poll,
            SyscallNo::ACCEPT | SyscallNo::ACCEPT4 => SyscallFamily::Accept,
            SyscallNo::SOCKET
            | SyscallNo::CONNECT
            | SyscallNo::BIND
            | SyscallNo::LISTEN
            | SyscallNo::CLOSE
            | SyscallNo::SHUTDOWN
            | SyscallNo::CLONE
            | SyscallNo::EXIT
            | SyscallNo::EPOLL_CTL
            | SyscallNo::EPOLL_CREATE1 => SyscallFamily::Lifecycle,
            _ => SyscallFamily::Other,
        }
    }

    /// True for the three families the paper derives metrics from.
    pub fn is_request_oriented(self) -> bool {
        matches!(
            self,
            SyscallFamily::Receive | SyscallFamily::Send | SyscallFamily::Poll
        )
    }
}

impl fmt::Display for SyscallFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SyscallFamily::Receive => "receive",
            SyscallFamily::Send => "send",
            SyscallFamily::Poll => "poll",
            SyscallFamily::Accept => "accept",
            SyscallFamily::Lifecycle => "lifecycle",
            SyscallFamily::Other => "other",
        };
        f.pad(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_oriented_families() {
        assert!(SyscallFamily::of(SyscallNo::RECVFROM).is_request_oriented());
        assert!(SyscallFamily::of(SyscallNo::SENDMSG).is_request_oriented());
        assert!(SyscallFamily::of(SyscallNo::SELECT).is_request_oriented());
        assert!(!SyscallFamily::of(SyscallNo::ACCEPT).is_request_oriented());
        assert!(!SyscallFamily::of(SyscallNo::SOCKET).is_request_oriented());
        assert!(!SyscallFamily::of(SyscallNo::FUTEX).is_request_oriented());
    }

    #[test]
    fn default_classification() {
        assert_eq!(SyscallFamily::of(SyscallNo::READ), SyscallFamily::Receive);
        assert_eq!(SyscallFamily::of(SyscallNo::WRITE), SyscallFamily::Send);
        assert_eq!(
            SyscallFamily::of(SyscallNo::EPOLL_WAIT),
            SyscallFamily::Poll
        );
        assert_eq!(SyscallFamily::of(SyscallNo::ACCEPT4), SyscallFamily::Accept);
        assert_eq!(
            SyscallFamily::of(SyscallNo::LISTEN),
            SyscallFamily::Lifecycle
        );
        assert_eq!(SyscallFamily::of(SyscallNo::MMAP), SyscallFamily::Other);
    }

    #[test]
    fn display_names() {
        assert_eq!(SyscallFamily::Receive.to_string(), "receive");
        assert_eq!(SyscallFamily::Other.to_string(), "other");
    }
}
