(** System-call numbers, names, and the paper's service categories.

    Enclosure system-call filters are expressed in categories grouped
    "around logical services, e.g., [file] for filesystem operations, [net]
    for network access, or [mem] for calls such as mmap and mprotect"
    (paper §2.2). *)

type t =
  | Read
  | Write
  | Open
  | Close
  | Stat
  | Fstat
  | Lseek
  | Mmap
  | Mprotect
  | Munmap
  | Brk
  | Pipe
  | Select
  | Sched_yield
  | Dup
  | Nanosleep
  | Getpid
  | Socket
  | Connect
  | Accept
  | Sendto
  | Recvfrom
  | Bind
  | Listen
  | Setsockopt
  | Exit
  | Kill
  | Fcntl
  | Ftruncate
  | Getcwd
  | Mkdir
  | Rmdir
  | Unlink
  | Chmod
  | Getuid
  | Getgid
  | Geteuid
  | Gettimeofday
  | Clock_gettime
  | Epoll_create
  | Epoll_wait
  | Epoll_ctl
  | Openat
  | Futex
  | Getrandom
  | Pkey_mprotect
  | Pkey_alloc
  | Pkey_free
  | Readdir
  | Sendfile

type category =
  | Cat_io  (** fd-based data movement: read, write, pipe, select, epoll *)
  | Cat_file  (** filesystem namespace: open, stat, unlink, mkdir, ... *)
  | Cat_net  (** socket operations *)
  | Cat_mem  (** address-space management: mmap, mprotect, pkey_* *)
  | Cat_proc  (** process control and identity *)
  | Cat_time
  | Cat_sync  (** futex, sched_yield *)
  | Cat_rand

val all : t list
val number : t -> int
(** Stable Linux-x86-64-flavoured numbers (used by the BPF layer). *)

val of_number : int -> t option
val name : t -> string
val category : t -> category
val category_name : category -> string
val category_of_name : string -> category option
val all_categories : category list

val category_index : category -> int
(** Position in {!all_categories}. *)
