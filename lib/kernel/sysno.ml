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
  | Cat_io
  | Cat_file
  | Cat_net
  | Cat_mem
  | Cat_proc
  | Cat_time
  | Cat_sync
  | Cat_rand

let all =
  [
    Read; Write; Open; Close; Stat; Fstat; Lseek; Mmap; Mprotect; Munmap; Brk;
    Pipe; Select; Sched_yield; Dup; Nanosleep; Getpid; Socket; Connect; Accept;
    Sendto; Recvfrom; Bind; Listen; Setsockopt; Exit; Kill; Fcntl; Ftruncate;
    Getcwd; Mkdir; Rmdir; Unlink; Chmod; Getuid; Getgid; Geteuid; Gettimeofday;
    Clock_gettime; Epoll_create; Epoll_wait; Epoll_ctl; Openat; Futex;
    Getrandom; Pkey_mprotect; Pkey_alloc; Pkey_free; Readdir; Sendfile;
  ]

let number = function
  | Read -> 0
  | Write -> 1
  | Open -> 2
  | Close -> 3
  | Stat -> 4
  | Fstat -> 5
  | Lseek -> 8
  | Mmap -> 9
  | Mprotect -> 10
  | Munmap -> 11
  | Brk -> 12
  | Pipe -> 22
  | Select -> 23
  | Sched_yield -> 24
  | Dup -> 32
  | Nanosleep -> 35
  | Getpid -> 39
  | Sendfile -> 40
  | Socket -> 41
  | Connect -> 42
  | Accept -> 43
  | Sendto -> 44
  | Recvfrom -> 45
  | Bind -> 49
  | Listen -> 50
  | Setsockopt -> 54
  | Exit -> 60
  | Kill -> 62
  | Fcntl -> 72
  | Ftruncate -> 77
  | Getcwd -> 79
  | Mkdir -> 83
  | Rmdir -> 84
  | Unlink -> 87
  | Chmod -> 90
  | Getuid -> 102
  | Getgid -> 104
  | Geteuid -> 107
  | Gettimeofday -> 96
  | Clock_gettime -> 228
  | Epoll_create -> 213
  | Epoll_wait -> 232
  | Epoll_ctl -> 233
  | Openat -> 257
  | Futex -> 202
  | Getrandom -> 318
  | Pkey_mprotect -> 329
  | Pkey_alloc -> 330
  | Pkey_free -> 331
  | Readdir -> 89

let by_number = Hashtbl.create 64

let () = List.iter (fun s -> Hashtbl.replace by_number (number s) s) all

let of_number n = Hashtbl.find_opt by_number n

let name = function
  | Read -> "read"
  | Write -> "write"
  | Open -> "open"
  | Close -> "close"
  | Stat -> "stat"
  | Fstat -> "fstat"
  | Lseek -> "lseek"
  | Mmap -> "mmap"
  | Mprotect -> "mprotect"
  | Munmap -> "munmap"
  | Brk -> "brk"
  | Pipe -> "pipe"
  | Select -> "select"
  | Sched_yield -> "sched_yield"
  | Dup -> "dup"
  | Nanosleep -> "nanosleep"
  | Getpid -> "getpid"
  | Socket -> "socket"
  | Connect -> "connect"
  | Accept -> "accept"
  | Sendto -> "sendto"
  | Recvfrom -> "recvfrom"
  | Bind -> "bind"
  | Listen -> "listen"
  | Setsockopt -> "setsockopt"
  | Exit -> "exit"
  | Kill -> "kill"
  | Fcntl -> "fcntl"
  | Ftruncate -> "ftruncate"
  | Getcwd -> "getcwd"
  | Mkdir -> "mkdir"
  | Rmdir -> "rmdir"
  | Unlink -> "unlink"
  | Chmod -> "chmod"
  | Getuid -> "getuid"
  | Getgid -> "getgid"
  | Geteuid -> "geteuid"
  | Gettimeofday -> "gettimeofday"
  | Clock_gettime -> "clock_gettime"
  | Epoll_create -> "epoll_create"
  | Epoll_wait -> "epoll_wait"
  | Epoll_ctl -> "epoll_ctl"
  | Openat -> "openat"
  | Futex -> "futex"
  | Getrandom -> "getrandom"
  | Pkey_mprotect -> "pkey_mprotect"
  | Pkey_alloc -> "pkey_alloc"
  | Pkey_free -> "pkey_free"
  | Readdir -> "readdir"
  | Sendfile -> "sendfile"

let category = function
  | Read | Write | Lseek | Pipe | Select | Dup | Fcntl | Epoll_create
  | Epoll_wait | Epoll_ctl | Sendfile ->
      Cat_io
  | Open | Openat | Close | Stat | Fstat | Ftruncate | Getcwd | Mkdir | Rmdir
  | Unlink | Chmod | Readdir ->
      Cat_file
  | Socket | Connect | Accept | Sendto | Recvfrom | Bind | Listen | Setsockopt
    ->
      Cat_net
  | Mmap | Mprotect | Munmap | Brk | Pkey_mprotect | Pkey_alloc | Pkey_free ->
      Cat_mem
  | Exit | Kill | Getpid | Getuid | Getgid | Geteuid -> Cat_proc
  | Nanosleep | Gettimeofday | Clock_gettime -> Cat_time
  | Futex | Sched_yield -> Cat_sync
  | Getrandom -> Cat_rand

let category_name = function
  | Cat_io -> "io"
  | Cat_file -> "file"
  | Cat_net -> "net"
  | Cat_mem -> "mem"
  | Cat_proc -> "proc"
  | Cat_time -> "time"
  | Cat_sync -> "sync"
  | Cat_rand -> "rand"

let all_categories =
  [ Cat_io; Cat_file; Cat_net; Cat_mem; Cat_proc; Cat_time; Cat_sync; Cat_rand ]

let category_of_name s =
  List.find_opt (fun c -> category_name c = s) all_categories

let category_index = function
  | Cat_io -> 0
  | Cat_file -> 1
  | Cat_net -> 2
  | Cat_mem -> 3
  | Cat_proc -> 4
  | Cat_time -> 5
  | Cat_sync -> 6
  | Cat_rand -> 7
