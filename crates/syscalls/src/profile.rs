//! Per-application syscall profiles.
//!
//! Different servers move request bytes through different syscalls (§IV-A of
//! the paper): TailBench uses `recvfrom`/`sendto` with legacy `select`,
//! CloudSuite Data Caching uses `read`/`sendmsg` with `epoll_wait`, Web
//! Search uses `read`/`write`, Triton uses `recvmsg`/`sendmsg` (gRPC) or
//! `recvfrom`/`sendto` (HTTP). A [`SyscallProfile`] records which concrete
//! syscalls play the receive / send / poll roles for one application, so the
//! observability pipeline can scope its filters exactly the way the authors'
//! eBPF programs did.

use core::fmt;

use crate::no::SyscallNo;

/// The role a syscall plays in one application's request path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyscallRole {
    /// Carries incoming request bytes.
    Receive,
    /// Carries outgoing response bytes.
    Send,
    /// Blocks waiting for request arrival.
    Poll,
}

impl fmt::Display for SyscallRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            SyscallRole::Receive => "receive",
            SyscallRole::Send => "send",
            SyscallRole::Poll => "poll",
        })
    }
}

/// Which concrete syscalls an application uses for each request-path role.
///
/// # Examples
///
/// ```
/// use kscope_syscalls::{SyscallNo, SyscallProfile, SyscallRole};
///
/// let tailbench = SyscallProfile::tailbench();
/// assert_eq!(tailbench.role_of(SyscallNo::SENDTO), Some(SyscallRole::Send));
/// assert_eq!(tailbench.role_of(SyscallNo::SELECT), Some(SyscallRole::Poll));
/// assert_eq!(tailbench.role_of(SyscallNo::FUTEX), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyscallProfile {
    receive: Vec<SyscallNo>,
    send: Vec<SyscallNo>,
    poll: Vec<SyscallNo>,
}

impl SyscallProfile {
    /// Builds a profile from explicit role assignments.
    ///
    /// # Panics
    ///
    /// Panics if any role list is empty or a syscall appears in two roles —
    /// a syscall that both receives and sends would make the paper's delta
    /// statistics meaningless.
    pub fn new(
        receive: Vec<SyscallNo>,
        send: Vec<SyscallNo>,
        poll: Vec<SyscallNo>,
    ) -> SyscallProfile {
        assert!(
            !receive.is_empty() && !send.is_empty() && !poll.is_empty(),
            "every role needs at least one syscall"
        );
        let mut seen = std::collections::HashSet::new();
        for no in receive.iter().chain(&send).chain(&poll) {
            assert!(seen.insert(*no), "syscall {no} assigned to two roles");
        }
        SyscallProfile {
            receive,
            send,
            poll,
        }
    }

    /// TailBench applications: `recvfrom`/`sendto` and legacy `select`.
    pub fn tailbench() -> SyscallProfile {
        SyscallProfile::new(
            vec![SyscallNo::RECVFROM],
            vec![SyscallNo::SENDTO],
            vec![SyscallNo::SELECT],
        )
    }

    /// CloudSuite Data Caching (memcached): `read`/`sendmsg`, `epoll_wait`.
    pub fn data_caching() -> SyscallProfile {
        SyscallProfile::new(
            vec![SyscallNo::READ],
            vec![SyscallNo::SENDMSG],
            vec![SyscallNo::EPOLL_WAIT],
        )
    }

    /// CloudSuite Web Search: `read`/`write`, `epoll_wait`.
    pub fn web_search() -> SyscallProfile {
        SyscallProfile::new(
            vec![SyscallNo::READ],
            vec![SyscallNo::WRITE],
            vec![SyscallNo::EPOLL_WAIT],
        )
    }

    /// Triton over gRPC: `recvmsg`/`sendmsg`, `epoll_wait`.
    pub fn triton_grpc() -> SyscallProfile {
        SyscallProfile::new(
            vec![SyscallNo::RECVMSG],
            vec![SyscallNo::SENDMSG],
            vec![SyscallNo::EPOLL_WAIT],
        )
    }

    /// Triton over HTTP: `recvfrom`/`sendto`, `epoll_wait`.
    pub fn triton_http() -> SyscallProfile {
        SyscallProfile::new(
            vec![SyscallNo::RECVFROM],
            vec![SyscallNo::SENDTO],
            vec![SyscallNo::EPOLL_WAIT],
        )
    }

    /// The syscalls playing the receive role.
    pub fn receive(&self) -> &[SyscallNo] {
        &self.receive
    }

    /// The syscalls playing the send role.
    pub fn send(&self) -> &[SyscallNo] {
        &self.send
    }

    /// The syscalls playing the poll role.
    pub fn poll(&self) -> &[SyscallNo] {
        &self.poll
    }

    /// The primary syscall for a role (the first listed).
    pub fn primary(&self, role: SyscallRole) -> SyscallNo {
        match role {
            SyscallRole::Receive => self.receive[0],
            SyscallRole::Send => self.send[0],
            SyscallRole::Poll => self.poll[0],
        }
    }

    /// Which role, if any, a syscall plays under this profile.
    pub fn role_of(&self, no: SyscallNo) -> Option<SyscallRole> {
        if self.receive.contains(&no) {
            Some(SyscallRole::Receive)
        } else if self.send.contains(&no) {
            Some(SyscallRole::Send)
        } else if self.poll.contains(&no) {
            Some(SyscallRole::Poll)
        } else {
            None
        }
    }

    /// True if the syscall participates in the request path at all.
    pub fn is_request_syscall(&self, no: SyscallNo) -> bool {
        self.role_of(no).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_profiles_match_paper_section_iv_a() {
        let tb = SyscallProfile::tailbench();
        assert_eq!(tb.primary(SyscallRole::Receive), SyscallNo::RECVFROM);
        assert_eq!(tb.primary(SyscallRole::Send), SyscallNo::SENDTO);
        assert_eq!(tb.primary(SyscallRole::Poll), SyscallNo::SELECT);

        let dc = SyscallProfile::data_caching();
        assert_eq!(dc.primary(SyscallRole::Receive), SyscallNo::READ);
        assert_eq!(dc.primary(SyscallRole::Send), SyscallNo::SENDMSG);
        assert_eq!(dc.primary(SyscallRole::Poll), SyscallNo::EPOLL_WAIT);

        let ws = SyscallProfile::web_search();
        assert_eq!(ws.primary(SyscallRole::Receive), SyscallNo::READ);
        assert_eq!(ws.primary(SyscallRole::Send), SyscallNo::WRITE);

        let tg = SyscallProfile::triton_grpc();
        assert_eq!(tg.primary(SyscallRole::Receive), SyscallNo::RECVMSG);
        assert_eq!(tg.primary(SyscallRole::Send), SyscallNo::SENDMSG);

        let th = SyscallProfile::triton_http();
        assert_eq!(th.primary(SyscallRole::Receive), SyscallNo::RECVFROM);
        assert_eq!(th.primary(SyscallRole::Send), SyscallNo::SENDTO);
    }

    #[test]
    fn role_of_covers_all_roles() {
        let p = SyscallProfile::data_caching();
        assert_eq!(p.role_of(SyscallNo::READ), Some(SyscallRole::Receive));
        assert_eq!(p.role_of(SyscallNo::SENDMSG), Some(SyscallRole::Send));
        assert_eq!(p.role_of(SyscallNo::EPOLL_WAIT), Some(SyscallRole::Poll));
        assert_eq!(p.role_of(SyscallNo::WRITE), None);
        assert!(p.is_request_syscall(SyscallNo::READ));
        assert!(!p.is_request_syscall(SyscallNo::ACCEPT));
    }

    #[test]
    #[should_panic(expected = "two roles")]
    fn duplicate_assignment_rejected() {
        SyscallProfile::new(
            vec![SyscallNo::READ],
            vec![SyscallNo::READ],
            vec![SyscallNo::EPOLL_WAIT],
        );
    }

    #[test]
    #[should_panic(expected = "at least one syscall")]
    fn empty_role_rejected() {
        SyscallProfile::new(vec![], vec![SyscallNo::WRITE], vec![SyscallNo::SELECT]);
    }
}
